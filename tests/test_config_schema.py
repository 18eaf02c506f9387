"""The package's config validator against jsonschema as an oracle.

parse_config checks the shipped schema with its own walker
(cli._schema_errors).  Here a Draft 2020-12 jsonschema validator, with
"integer" redefined to exclude floats such as 4096.0, validates the same
documents: the walker must report the same errors, with the same
messages and key paths, in the same order.  jsonschema is a test
dependency only, so the differential tests skip without it.
"""

import copy

import pytest
import yaml

from nlfield import cli
from nlfield.cli import parse_config
from nlfield.errors import ConfigError

# documents the schema rejects: every keyword, nested objects, array
# items, null and true where a number belongs, several errors at once
BAD_DOCUMENTS = [
    "",
    "p: 2.0\n",
    # additionalProperties precedes required in the root node, so the
    # unexpected key is reported first
    "bogus: 1\n",
    "beta: 2.0\nbogus: 1\nzz: 2\n",
    "beta: 2.0\n1: x\nnull: y\n",
    "beta: -1.0\n",
    "beta: 0\n",
    "beta: '2'\n",
    "beta: true\n",
    "beta: null\n",
    "beta: [1]\n",
    "beta: 2.0\np: 1\n",
    "beta: 2.0\np: 0.5\n",
    "beta: 2.0\nmodel: relu\n",
    "beta: 2.0\nmodel: 1\n",
    "beta: 2.0\nweight: null\n",
    "beta: 2.0\nhalf_length: 3\n",
    "beta: 2.0\nn_points: 4096.0\n",
    "beta: 2.0\nn_points: 8\n",
    "beta: 2.0\nn_points: 4.0\n",
    "beta: 2.0\ndt: 0.2\n",
    "beta: 2.0\ndt: 0\n",
    "beta: 2.0\nfield: 3\n",
    "beta: 2.0\nfield:\n  family: sine\n",
    "beta: 2.0\nfield:\n  amplitude: -0.1\n",
    "beta: 2.0\nfield:\n  bogus: 1\n",
    "beta: 2.0\nfield:\n  omega: true\n",
    "beta: 2.0\nfield:\n  family: pulsed\n  amplitude: x\n  omega: y\n",
    "beta: 2.0\nseed: -1\n",
    "beta: 2.0\nseed: 1.5\n",
    "beta: 2.0\noutput: 3\n",
    "beta: 2.0\nsimulate:\n  initial:\n    kind: walk\n",
    "beta: 2.0\nsimulate:\n  initial:\n    norm: 0\n",
    "beta: 2.0\nsimulate:\n  snapshots: -1\n",
    "beta: 2.0\nsimulate: []\n",
    "beta: 2.0\nattractor:\n  tau_ladder: []\n",
    "beta: 2.0\nattractor:\n  tau_ladder: [-4, x]\n",
    "beta: 2.0\nattractor:\n  tau_ladder: -4\n",
    "beta: 2.0\nattractor:\n  tau_ladder: [true]\n",
    "beta: 2.0\nattractor:\n  n_samples: 0\n",
    "beta: 2.0\nhstar: null\n",
    "beta: 2.0\nhstar:\n  h_ladder: [0.1, -0.2]\n",
    "beta: 2.0\nverify:\n  checks: [lemma1a, nope]\n",
    "beta: 2.0\nverify:\n  checks: []\n",
    "beta: 2.0\nverify:\n  checks: nope\n",
    "beta: 2.0\nverify:\n  samples: 0\n",
    "beta: 2.0\nsweep:\n  epsilons: [0.5, 1.5, -0.1]\n",
    "beta: 2.0\nsweep:\n  epsilons: [null]\n",
    "beta: -1\nzz: 1\nn_points: 1.0\n",
    "sweep:\n  n_samples: 0\n",
]

GOOD_DOCUMENTS = [
    "beta: 2.0\n",
    "beta: 2.0\nn_points: 1024\nseed: 3\nverify:\n  checks: [lemma1a]\n",
    "beta: 0.5\nfield:\n  family: pulsed\n  amplitude: 0.1\n"
    "sweep:\n  epsilons: [1, 0]\n",
]

# keys of a schema node that state nothing to check
ANNOTATIONS = {"$schema", "title", "description", "default"}


def oracle_errors(data):
    """(key path, message) of every jsonschema error, sorted by path."""
    jsonschema = pytest.importorskip("jsonschema")
    base = jsonschema.Draft202012Validator
    validator = jsonschema.validators.extend(
        base, type_checker=base.TYPE_CHECKER.redefine(
            "integer",
            lambda _, x: isinstance(x, int) and not isinstance(x, bool)))
    errors = sorted(validator(cli._schema()).iter_errors(data),
                    key=lambda e: list(e.absolute_path))
    return [(tuple(e.absolute_path), e.message) for e in errors]


@pytest.mark.parametrize("doc", BAD_DOCUMENTS,
                         ids=[f"bad{i}" for i in range(len(BAD_DOCUMENTS))])
def test_config_error_matches_jsonschema(doc):
    expected = oracle_errors(yaml.safe_load(doc) or {})
    assert expected, "the corpus holds only documents the schema rejects"
    path, message = expected[0]
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert err.value.key_path == ".".join(map(str, path))
    assert str(err.value) == str(ConfigError(message, err.value.key_path))


@pytest.mark.parametrize(
    "doc", BAD_DOCUMENTS + GOOD_DOCUMENTS,
    ids=[f"bad{i}" for i in range(len(BAD_DOCUMENTS))]
    + [f"good{i}" for i in range(len(GOOD_DOCUMENTS))])
def test_every_schema_error_matches_jsonschema(doc):
    data = yaml.safe_load(doc) or {}
    expected = oracle_errors(data)
    assert sorted(cli._schema_errors(data, cli._schema()),
                  key=lambda e: e[0]) == expected


def test_bad_documents_reach_every_checking_keyword():
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.Draft202012Validator(cli._schema())
    reached = {e.validator for doc in BAD_DOCUMENTS
               for e in validator.iter_errors(yaml.safe_load(doc) or {})}
    # items and properties only descend; the others report
    assert reached == set(cli._KEYWORDS) - {"items", "properties"}


def unsupported(schema):
    """Key paths and keywords of the schema that _schema_errors skips."""
    found = []

    def walk(node, path):
        for key in node:
            if key not in cli._KEYWORDS and key not in ANNOTATIONS:
                found.append((path, key))
        if node.get("additionalProperties", False) is not False:
            found.append((path, "additionalProperties"))
        if "type" in node and node["type"] not in cli._TYPES:
            found.append((path, "type"))
        # a non-string enum member would compare as jsonschema does not:
        # True in [1] holds in Python
        if not all(isinstance(v, str) for v in node.get("enum", [])):
            found.append((path, "enum"))
        for name, sub in node.get("properties", {}).items():
            walk(sub, f"{path}.{name}" if path else name)
        if "items" in node:
            walk(node["items"], f"{path}[]")

    walk(schema, "")
    return found


def test_schema_uses_only_keywords_the_package_checks():
    assert unsupported(cli._schema()) == []
    # a keyword the walker does not know fails here instead of passing
    # every document silently
    planted = copy.deepcopy(cli._schema())
    planted["properties"]["output"]["pattern"] = "^out"
    planted["properties"]["sweep"]["properties"]["epsilons"]["items"]["oneOf"] = []
    planted["properties"]["field"]["additionalProperties"] = {"type": "number"}
    planted["properties"]["model"]["enum"].append(True)
    assert unsupported(planted) == [
        ("model", "enum"), ("field", "additionalProperties"),
        ("output", "pattern"), ("sweep.epsilons[]", "oneOf")]
