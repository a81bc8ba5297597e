"""Test-only oracle: the JSON decoders of ``qmat.serialize`` as they were
before each value was validated once.

These decoders check every value through ``_require`` and per-value
generator expressions, and build each element through its constructor,
which checks every exponent vector again.  The code below is that
implementation unchanged, so the differential tests in
``test_serialize_oracle.py`` compare the decoders against the path they
replaced: the same element, or the same exception class and message.
"""

from __future__ import annotations

from qmat.context import AlgebraContext, build_context
from qmat.derivations import ALGEBRAS, DerivationSpec
from qmat.errors import DimensionMismatchError, ParseError
from qmat.rational import RationalFunction
from qmat.sparse import add_into


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ParseError(message)


def _is_int(v) -> bool:
    """JSON integer; bool is an int subclass, but true/false are not integers."""
    return isinstance(v, int) and not isinstance(v, bool)


def rf_from_json(data) -> RationalFunction:
    _require(isinstance(data, dict), "coefficient must be an object")
    _require(
        "num" in data and "den" in data, "coefficient needs num and den"
    )
    num, den = data["num"], data["den"]
    _require(
        isinstance(num, list) and all(_is_int(c) for c in num),
        "num must be a list of integers",
    )
    _require(
        isinstance(den, list) and all(_is_int(c) for c in den),
        "den must be a list of integers",
    )
    _require(any(den), "den must be nonzero")
    return RationalFunction(tuple(num), tuple(den))


def _exp_from_triples(ctx: AlgebraContext, data) -> tuple:
    _require(isinstance(data, list), "exp must be a list of [i, a, e] triples")
    exp = [0] * (ctx.n * ctx.n)
    for triple in data:
        _require(
            isinstance(triple, list)
            and len(triple) == 3
            and all(_is_int(v) for v in triple),
            "exp entries must be integer triples [i, a, e]",
        )
        i, a, e = triple
        _require(
            1 <= i <= ctx.n and 1 <= a <= ctx.n,
            f"generator ({i},{a}) outside the {ctx.n}x{ctx.n} grid",
        )
        exp[ctx.flat(i, a)] += e
    return tuple(exp)


def element_from_json(data, alg: str | None = None, n: int | None = None):
    _require(isinstance(data, dict), "element must be an object")
    _require("n" in data and _is_int(data["n"]), "element needs integer n")
    if n is not None and data["n"] != n:
        raise DimensionMismatchError(
            f"element has n = {data['n']}, expected {n}"
        )
    tag = data.get("alg", alg or "torus")
    _require(tag in ALGEBRAS, f"unknown algebra tag {tag!r}")
    if alg is not None and tag != alg:
        raise DimensionMismatchError(
            f"element is tagged {tag!r}, expected {alg!r}"
        )
    ctx = build_context(data["n"])
    _require(isinstance(data.get("terms"), list), "element needs a terms list")
    # repeated exponents are summed and zero sums dropped
    terms: dict = {}
    for term in data["terms"]:
        _require(isinstance(term, dict), "terms must be objects")
        _require("exp" in term and "coeff" in term, "term needs exp and coeff")
        exp = _exp_from_triples(ctx, term["exp"])
        if tag == "Mq" and any(e < 0 for e in exp):
            raise ParseError("negative exponents are torus-only")
        add_into(terms, exp, rf_from_json(term["coeff"]))
    return ALGEBRAS[tag](ctx, terms)


def derivation_from_json(data, n: int | None = None) -> DerivationSpec:
    _require(isinstance(data, dict), "derivation spec must be an object")
    alg = data.get("alg")
    _require(alg in ALGEBRAS, "spec needs alg Mq or torus")
    _require(isinstance(data.get("images"), list), "spec needs an images list")
    dim = data.get("n")
    _require(dim is None or _is_int(dim), "spec n must be an integer")
    if dim is None:
        dim = n
    elif n is not None and dim != n:
        raise DimensionMismatchError(f"spec has n = {dim}, expected {n}")
    images = {}
    for entry in data["images"]:
        _require(isinstance(entry, dict), "image entries must be objects")
        gen = entry.get("gen")
        _require(
            isinstance(gen, list)
            and len(gen) == 2
            and all(_is_int(v) for v in gen),
            "image gen must be a pair [i, a]",
        )
        _require("value" in entry, f"image of {gen} needs a value")
        _require(tuple(gen) not in images, f"generator {gen} has two images")
        value = element_from_json(entry["value"], alg=alg, n=dim)
        dim = value.ctx.n
        in_grid = 1 <= min(gen) <= max(gen) <= dim
        _require(in_grid, f"generator {tuple(gen)} outside the grid")
        images[tuple(gen)] = value
    _require(dim is not None, "empty derivation spec without dimension")
    return DerivationSpec(build_context(dim), alg, images)
