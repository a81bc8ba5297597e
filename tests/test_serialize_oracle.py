"""The JSON decoders against the decoders they replaced.

``tests/serialize_oracle.py`` keeps the decoders that checked every value
through per-value generator expressions and then built each element
through its constructor.  For every document below, well formed or not,
the decoders of ``qmat.serialize`` must give the same element or spec as
the oracle, or raise the same exception class with the same message.
The one exception is a list or object as the algebra tag, on which the
oracle crashes with a ``TypeError`` and the decoders raise ``ParseError``.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import serialize_oracle as oracle
from qmat import serialize


class Int(int):
    """An int subclass: a JSON integer for both decoders."""


class Doc(dict):
    """A dict subclass: a JSON object for both decoders."""


class Seq(list):
    """A list subclass: a JSON list for both decoders."""


def outcome(decode, doc, **kw):
    try:
        return "value", decode(copy.deepcopy(doc), **kw)
    except Exception as exc:  # the class and the message are compared
        return type(exc), str(exc)


def assert_same(name, doc, **kw):
    got = outcome(getattr(serialize, name), doc, **kw)
    want = outcome(getattr(oracle, name), doc, **kw)
    if want[0] is TypeError and want[1].startswith("unhashable type"):
        # the one known difference: the oracle crashes on a list or object
        # as the algebra tag, which the decoders refuse as malformed
        assert got[0] is serialize.ParseError
        assert got[1].startswith(("unknown algebra tag", "spec needs alg"))
    else:
        assert got == want
    return got


# ---------------------------------------------------------------------------
# a table of documents, most of them malformed

COEFF = {"num": [1, -2], "den": [3]}
SEQ_COEFF = {"num": Seq([1, -2]), "den": Seq([3])}


def term(exp=((1, 1, 1),), coeff=COEFF):
    return {"exp": [list(t) for t in exp], "coeff": coeff}


def element(terms=None, n=2, alg="Mq"):
    return {"n": n, "alg": alg, "terms": [term()] if terms is None else terms}


def with_exp(*triples, alg="Mq"):
    return element([{"exp": list(triples), "coeff": COEFF}], alg=alg)


def with_coeff(coeff):
    return element([term(coeff=coeff)])


ELEMENTS = {
    "well-formed Mq": (element(), {}),
    "well-formed torus": (with_exp([1, 2, -3], [2, 1, 2], alg="torus"), {}),
    "not an object": ([1, 2], {}),
    "a string": ("x", {}),
    "no n": ({"alg": "Mq", "terms": []}, {}),
    "bool n": (element(n=True), {}),
    "float n": (element(n=2.0), {}),
    "string n": (element(n="2"), {}),
    "n = 1": (element(n=1), {}),
    "n = 0": (element(n=0), {}),
    "n disagrees": (element(), {"n": 3}),
    "unknown tag": (element(alg="gl"), {}),
    "tag disagrees": (element(alg="torus"), {"alg": "Mq"}),
    "no tag, torus default": ({"n": 2, "terms": [term()]}, {}),
    "no tag, Mq asked": ({"n": 2, "terms": [term()]}, {"alg": "Mq"}),
    "no terms": ({"n": 2, "alg": "Mq"}, {}),
    "terms an object": ({"n": 2, "alg": "Mq", "terms": {}}, {}),
    "terms a string": ({"n": 2, "alg": "Mq", "terms": "[]"}, {}),
    "empty terms": (element([]), {}),
    "term a list": (element([[1, 1, 1]]), {}),
    "term no exp": (element([{"coeff": COEFF}]), {}),
    "term no coeff": (element([{"exp": [[1, 1, 1]]}]), {}),
    "exp an object": (element([{"exp": {}, "coeff": COEFF}]), {}),
    "exp a tuple": (element([{"exp": ((1, 1, 1),), "coeff": COEFF}]), {}),
    "empty exp": (element([{"exp": [], "coeff": COEFF}]), {}),
    "short triple": (with_exp([1, 1]), {}),
    "long triple": (with_exp([1, 1, 1, 1]), {}),
    "empty triple": (with_exp([]), {}),
    "triple an int": (with_exp(5), {}),
    "triple a tuple": (with_exp((1, 1, 1)), {}),
    "bool i": (with_exp([True, 1, 1]), {}),
    "bool e": (with_exp([1, 1, False]), {}),
    "float a": (with_exp([1, 1.0, 1]), {}),
    "string e": (with_exp([1, 1, "1"]), {}),
    "None i": (with_exp([None, 1, 1]), {}),
    "row 0": (with_exp([0, 1, 1]), {}),
    "row 3": (with_exp([3, 1, 1]), {}),
    "column -1": (with_exp([1, -1, 1]), {}),
    "column 3 torus": (with_exp([1, 3, 1], alg="torus"), {}),
    "bad triple after a good one": (with_exp([1, 1, 1], [2, 9, 1]), {}),
    "negative Mq exponent": (with_exp([2, 2, -1]), {}),
    "negative torus exponent": (with_exp([2, 2, -1], alg="torus"), {}),
    "Mq exponents summing to 0": (with_exp([1, 2, -1], [1, 2, 1]), {}),
    "Mq exponents summing below 0": (with_exp([1, 2, 1], [1, 2, -2]), {}),
    "repeated generator": (with_exp([1, 2, 1], [1, 2, 2]), {}),
    "coeff a list": (with_coeff([1]), {}),
    "coeff no num": (with_coeff({"den": [1]}), {}),
    "coeff no den": (with_coeff({"num": [1]}), {}),
    "num a tuple": (with_coeff({"num": (1,), "den": [1]}), {}),
    "num an int": (with_coeff({"num": 1, "den": [1]}), {}),
    "bool in num": (with_coeff({"num": [1, True], "den": [1]}), {}),
    "float in num": (with_coeff({"num": [1.5], "den": [1]}), {}),
    "string in den": (with_coeff({"num": [1], "den": ["1"]}), {}),
    "bool den": (with_coeff({"num": [1], "den": [True]}), {}),
    "bool num, empty den": (with_coeff({"num": [False], "den": []}), {}),
    "empty den": (with_coeff({"num": [1], "den": []}), {}),
    "zero den": (with_coeff({"num": [1], "den": [0]}), {}),
    "zeros den": (with_coeff({"num": [1], "den": [0, 0, 0]}), {}),
    "empty num": (with_coeff({"num": [], "den": [2]}), {}),
    "zero num": (with_coeff({"num": [0, 0], "den": [2]}), {}),
    "padded quotient": (with_coeff({"num": [0, 0, 6], "den": [0, 4]}), {}),
    "cancelling terms": (
        element([term(coeff={"num": [c], "den": [2]}) for c in (1, -1)]),
        {},
    ),
    "int subclass n": (element(n=Int(2)), {"n": 2}),
    "int subclass triple": (with_exp([Int(1), Int(2), Int(3)]), {}),
    "int subclass coefficient": (
        with_coeff({"num": [Int(3), 0, Int(-1)], "den": [Int(2)]}),
        {},
    ),
    "dict subclass element": (Doc(element()), {}),
    "dict subclass term": (element([Doc(term())]), {}),
    "dict subclass coeff": (with_coeff(Doc(COEFF)), {}),
    "list subclasses": (
        element(Seq([{"exp": Seq([Seq([1, 2, 1])]), "coeff": SEQ_COEFF}])),
        {},
    ),
}


def spec(images=None, n=2, alg="Mq"):
    if images is None:
        images = [{"gen": [1, 2], "value": element(alg=alg)}]
    data = {"alg": alg, "images": images}
    if n is not None:
        data["n"] = n
    return data


def image(gen, value=None):
    return {"gen": gen, "value": element() if value is None else value}


SPECS = {
    "well-formed": (spec(), {}),
    "well-formed torus": (spec(alg="torus"), {}),
    "not an object": ([], {}),
    "no alg": ({"n": 2, "images": []}, {}),
    "unknown alg": (spec(alg="gl"), {}),
    "no images": ({"alg": "Mq", "n": 2}, {}),
    "images an object": ({"alg": "Mq", "n": 2, "images": {}}, {}),
    "bool n": (spec(n=True), {}),
    "float n": (spec(n=2.0), {}),
    "n disagrees": (spec(), {"n": 3}),
    "no n, n given": (spec(n=None), {"n": 2}),
    "no n, none given": (spec(n=None), {}),
    "empty, no n": (spec([], n=None), {}),
    "empty, n given": (spec([], n=None), {"n": 3}),
    "empty, spec n": (spec([], n=2), {}),
    "entry a list": (spec([[1, 2]]), {}),
    "no gen": (spec([{"value": element()}]), {}),
    "gen a string": (spec([image("12")]), {}),
    "gen a tuple": (spec([image((1, 2))]), {}),
    "short gen": (spec([image([1])]), {}),
    "long gen": (spec([image([1, 2, 1])]), {}),
    "bool gen": (spec([image([True, 2])]), {}),
    "float gen": (spec([image([1, 2.0])]), {}),
    "no value": (spec([{"gen": [1, 2]}]), {}),
    "two images": (spec([image([1, 2]), image([1, 2])]), {}),
    "gen outside": (spec([image([1, 3])]), {}),
    "gen row 0": (spec([image([0, 1])]), {}),
    "value of the other algebra": (spec([image([1, 1], element(alg="torus"))]), {}),
    "value of another size": (spec([image([1, 1], element(n=3))]), {}),
    "sizes disagree between values": (
        spec([image([1, 1]), image([2, 2], element(n=3))], n=None),
        {},
    ),
    "bad value": (spec([image([1, 1], with_exp([1, 1, True]))]), {}),
    "int subclass gen": (spec([image([Int(2), Int(1)])]), {}),
    "int subclass n": (spec(n=Int(2)), {}),
    "dict subclasses": (Doc(spec([Doc(image([2, 2], Doc(element())))])), {}),
}


@pytest.mark.parametrize("doc, kw", ELEMENTS.values(), ids=ELEMENTS.keys())
def test_element_decoding_matches_the_oracle(doc, kw):
    assert_same("element_from_json", doc, **kw)


@pytest.mark.parametrize("doc, kw", SPECS.values(), ids=SPECS.keys())
def test_spec_decoding_matches_the_oracle(doc, kw):
    assert_same("derivation_from_json", doc, **kw)


def test_the_table_has_both_verdicts():
    verdicts = [
        assert_same(name, doc, **kw)[0]
        for name, table in (("element_from_json", ELEMENTS), ("derivation_from_json", SPECS))
        for doc, kw in table.values()
    ]
    assert verdicts.count("value") >= 20
    assert len({v for v in verdicts if v != "value"}) >= 3  # exception classes


# ---------------------------------------------------------------------------
# generated documents, well formed and with one leaf replaced

ints = st.integers(min_value=-3, max_value=3)


@st.composite
def element_docs(draw, n=None, alg=None):
    n = n or draw(st.sampled_from([2, 3]))
    alg = alg or draw(st.sampled_from(["Mq", "torus"]))
    low = 0 if alg == "Mq" else -2
    cell = st.integers(min_value=1, max_value=n)
    triple = st.tuples(cell, cell, st.integers(min_value=low, max_value=3)).map(list)
    coeff = st.fixed_dictionaries(
        {
            "num": st.lists(ints, max_size=3),
            "den": st.lists(ints, min_size=1, max_size=3).filter(any),
        }
    )
    terms = st.lists(
        st.fixed_dictionaries({"exp": st.lists(triple, max_size=3), "coeff": coeff}),
        max_size=5,
    )
    return {"n": n, "alg": alg, "terms": draw(terms)}


@st.composite
def spec_docs(draw):
    n = draw(st.sampled_from([2, 3]))
    alg = draw(st.sampled_from(["Mq", "torus"]))
    cells = [[i, a] for i in range(1, n + 1) for a in range(1, n + 1)]
    gens = draw(st.lists(st.sampled_from(cells), max_size=4, unique_by=tuple))
    images = [{"gen": g, "value": draw(element_docs(n, alg))} for g in gens]
    return {"alg": alg, "n": n, "images": images}


JUNK = [True, False, None, 0, -1, 1, 2, 3, 1.0, "1", [], {}, [1], Int(1)]


@st.composite
def with_one_leaf_replaced(draw, docs):
    """A document with one list entry or object value, at any depth,
    replaced by a junk value or an int subclass."""
    doc = copy.deepcopy(draw(docs))
    slots = []

    def walk(node):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            slots.append((node, key))
            if isinstance(value, (dict, list)):
                walk(value)

    walk(doc)
    if slots:
        node, key = draw(st.sampled_from(slots))
        node[key] = draw(st.sampled_from(JUNK))
    return doc


@settings(max_examples=150, deadline=None)
@given(element_docs())
def test_generated_elements_decode_as_before(doc):
    verdict, got = assert_same("element_from_json", doc)
    assert verdict == "value"
    assert serialize.element_from_json(serialize.element_to_json(got)) == got


@settings(max_examples=60, deadline=None)
@given(spec_docs())
def test_generated_specs_decode_as_before(doc):
    verdict, got = assert_same("derivation_from_json", doc)
    assert verdict == "value"
    assert serialize.derivation_from_json(serialize.derivation_to_json(got)) == got


@settings(max_examples=200, deadline=None)
@given(with_one_leaf_replaced(element_docs()))
def test_elements_with_a_replaced_leaf_decode_as_before(doc):
    assert_same("element_from_json", doc)


@settings(max_examples=100, deadline=None)
@given(with_one_leaf_replaced(spec_docs()))
def test_specs_with_a_replaced_leaf_decode_as_before(doc):
    assert_same("derivation_from_json", doc)
