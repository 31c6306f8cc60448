"""Malformed input may raise only PlumbweaveError, never a bare Python error.

The CLI maps PlumbweaveError to exit code 2 and any other exception to the
internal-error exit 4; exit 1 is reserved for a verified-false answer.
"""

import json

from hypothesis import example, given, settings, strategies as st

from plumbweave import PlumbweaveError, family_word, parse_tree
from plumbweave.fibration import from_json, to_json
from plumbweave.moves import (
    CYCLIC,
    HURWITZ_A,
    HURWITZ_B,
    STABILIZE,
    moves_from_json,
    moves_to_json,
)

# values that broke a loader once: non-finite numbers, lone surrogates
EDGE_CASES = [float("inf"), float("-inf"), float("nan"), "\ud800", "vertex:\udfff"]
# values that a loose loader once read as integers, or as names
NUMBER_LOOKALIKES = [True, False, None, 0, 5, 0.0, 1.0, 2.0, 2.5, "0", "2"]

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text()
    | st.sampled_from(EDGE_CASES),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

VALID_DOC = json.loads(to_json(family_word(3, 1, 3)))


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _paths(v, prefix + (i,))


PATHS = list(_paths(VALID_DOC))[1:]


@st.composite
def damaged_docs(draw):
    """The valid fibration document with one node replaced by any JSON value."""
    doc = json.loads(json.dumps(VALID_DOC))
    path = draw(st.sampled_from(PATHS))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = draw(st.sampled_from(EDGE_CASES + NUMBER_LOOKALIKES) | json_values)
    return doc


move_items = st.fixed_dictionaries(
    {"kind": st.sampled_from([CYCLIC, HURWITZ_A, HURWITZ_B, STABILIZE]) | json_values},
    optional={"index": json_values, "vertex": json_values},
)


def only_plumbweave_errors(fn, text):
    try:
        return fn(text)
    except PlumbweaveError:
        return None


@given(json_values | damaged_docs())
@settings(max_examples=150, deadline=None)
def test_from_json_raises_only_plumbweave_errors(doc):
    alf = only_plumbweave_errors(from_json, json.dumps(doc))
    if alf is not None:  # what it accepts, the CLI can write back out
        out = json.loads(to_json(alf).encode("utf-8"))
        assert integers(out) == integers(doc)
        assert names(out) == names(doc)
        assert from_json(to_json(alf)) == alf


def integers(doc):
    """The integers a fibration document carries, spelled as JSON, so that
    ``true`` or ``3.0`` never pass for ``1`` or ``3``."""
    return json.dumps(
        [doc["n"], doc["fiber"]["sphere_dim"], [c["coords"] for c in doc["cycles"]]]
    )


def names(doc):
    """The names a fibration document carries, spelled as JSON, so that
    ``5``, ``true`` or ``null`` never pass for ``"5"``, ``"True"`` or
    ``"None"``."""
    pat = doc["fiber"]["pattern"]
    return json.dumps(
        [
            pat["vertices"],
            pat["edges"],
            [[c["label"], c["display"]] for c in doc["cycles"]],
        ],
        ensure_ascii=False,
    )


# the fields each kind of move uses; any other field is absent or null
MOVE_FIELDS = {
    CYCLIC: set(),
    HURWITZ_A: {"index"},
    HURWITZ_B: {"index"},
    STABILIZE: {"index", "vertex"},
}


@given(json_values | st.lists(move_items | json_values, max_size=4))
@settings(max_examples=150, deadline=None)
@example([{"kind": CYCLIC, "index": [1, 2], "vertex": 5}])
@example([{"kind": HURWITZ_B, "index": 0, "vertex": {"a": None}}])
def test_moves_from_json_raises_only_plumbweave_errors(doc):
    seq = only_plumbweave_errors(moves_from_json, json.dumps(doc))
    if seq is not None:  # what it accepts is hashable and written back as read
        hash(seq)
        out = moves_to_json(seq)
        assert moves_from_json(out) == seq
        assert all(set(item) - {"kind"} == MOVE_FIELDS[item["kind"]] for item in json.loads(out))


# past the interpreter's digit limit for int(), and past its recursion limit
HOSTILE_TEXTS = ["[" + "9" * 5000 + "]", "[" * 100_000]


@given(st.text() | st.sampled_from(HOSTILE_TEXTS))
@settings(max_examples=100, deadline=None)
def test_json_loaders_take_any_text(text):
    only_plumbweave_errors(from_json, text)
    only_plumbweave_errors(moves_from_json, text)


tree_tokens = st.sampled_from(["root", "edge", "rot", "a", "b", "c", "e", "f", "#"])
tree_lines = st.lists(tree_tokens | st.text(max_size=3), max_size=5).map(" ".join)


@given(st.text() | st.lists(tree_lines, max_size=8).map("\n".join))
@settings(max_examples=150, deadline=None)
def test_parse_tree_raises_only_plumbweave_errors(text):
    only_plumbweave_errors(parse_tree, text)
