"""JSON encoding and decoding of elements, derivation specs and reports.

All formats are dimension-tagged; sparse exponent lists use [i, a, e]
triples in 1-based generator coordinates.  Decoding raises ``ParseError``
on malformed input and ``DimensionMismatchError`` when dimensions
disagree, matching the command-line exit-code contract.  Each value is
validated once, where it is read; the decoded terms are attached to the
element as they are, without a second check of their exponents.
"""

from __future__ import annotations

from .context import AlgebraContext, build_context
from .derivations import ALGEBRAS, DerivationSpec, DetPolynomial, HH1Coordinates
from .errors import DimensionMismatchError, ParseError
from .rational import RationalFunction
from .sparse import add_into


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ParseError(message)


def _int_list(v) -> bool:
    """A list of JSON integers; bool is an int subclass, but true/false are
    not integers."""
    if not isinstance(v, list):
        return False
    for c in v:
        if type(c) is not int and (not isinstance(c, int) or type(c) is bool):
            return False
    return True


def rf_from_json(data) -> RationalFunction:
    _require(isinstance(data, dict), "coefficient must be an object")
    _require("num" in data and "den" in data, "coefficient needs num and den")
    num, den = data["num"], data["den"]
    _require(_int_list(num), "num must be a list of integers")
    _require(_int_list(den), "den must be a list of integers")
    _require(any(den), "den must be nonzero")
    return RationalFunction(tuple(num), tuple(den))


def _exp_to_triples(ctx: AlgebraContext, exp) -> list:
    out = []
    for k, e in enumerate(exp):
        if e:
            i, a = ctx.gen_at(k)
            out.append([i, a, e])
    return out


def _exp_from_triples(ctx: AlgebraContext, data) -> tuple:
    _require(isinstance(data, list), "exp must be a list of [i, a, e] triples")
    n = ctx.n
    exp = [0] * (n * n)
    for triple in data:
        _require(
            _int_list(triple) and len(triple) == 3,
            "exp entries must be integer triples [i, a, e]",
        )
        i, a, e = triple
        if not (1 <= i <= n and 1 <= a <= n):
            raise ParseError(f"generator ({i},{a}) outside the {n}x{n} grid")
        exp[(i - 1) * n + a - 1] += e
    return tuple(exp)


def element_to_json(x) -> dict:
    ctx = x.ctx
    terms = [
        {"exp": _exp_to_triples(ctx, exp), "coeff": coeff.to_json()}
        for exp, coeff in x.sorted_terms()
    ]
    return {"n": ctx.n, "terms": terms, "alg": x.ALG}


def element_from_json(data, alg: str | None = None, n: int | None = None):
    _require(isinstance(data, dict), "element must be an object")
    _require("n" in data and _int_list([data["n"]]), "element needs integer n")
    if n is not None and data["n"] != n:
        raise DimensionMismatchError(
            f"element has n = {data['n']}, expected {n}"
        )
    tag = data.get("alg", alg or "torus")
    _require(isinstance(tag, str) and tag in ALGEBRAS, f"unknown algebra tag {tag!r}")
    if alg is not None and tag != alg:
        raise DimensionMismatchError(
            f"element is tagged {tag!r}, expected {alg!r}"
        )
    ctx = build_context(data["n"])
    _require(isinstance(data.get("terms"), list), "element needs a terms list")
    # repeated exponents are summed and zero sums dropped
    out = ALGEBRAS[tag](ctx)
    for term in data["terms"]:
        _require(isinstance(term, dict), "terms must be objects")
        _require("exp" in term and "coeff" in term, "term needs exp and coeff")
        exp = _exp_from_triples(ctx, term["exp"])
        if tag == "Mq" and min(exp) < 0:
            raise ParseError("negative exponents are torus-only")
        add_into(out.terms, exp, rf_from_json(term["coeff"]))
    return out


def derivation_to_json(d: DerivationSpec) -> dict:
    return {
        "alg": d.alg,
        "n": d.ctx.n,
        "images": [
            {"gen": [i, a], "value": element_to_json(d.images[(i, a)])}
            for (i, a) in d.ctx.generators
        ],
    }


def derivation_from_json(data, n: int | None = None) -> DerivationSpec:
    _require(isinstance(data, dict), "derivation spec must be an object")
    alg = data.get("alg")
    _require(isinstance(alg, str) and alg in ALGEBRAS, "spec needs alg Mq or torus")
    _require(isinstance(data.get("images"), list), "spec needs an images list")
    dim = data.get("n")
    _require(dim is None or _int_list([dim]), "spec n must be an integer")
    if dim is None:
        dim = n
    elif n is not None and dim != n:
        raise DimensionMismatchError(f"spec has n = {dim}, expected {n}")
    images = {}
    for entry in data["images"]:
        _require(isinstance(entry, dict), "image entries must be objects")
        gen = entry.get("gen")
        _require(_int_list(gen) and len(gen) == 2, "image gen must be a pair [i, a]")
        _require("value" in entry, f"image of {gen} needs a value")
        _require(tuple(gen) not in images, f"generator {gen} has two images")
        value = element_from_json(entry["value"], alg=alg, n=dim)
        dim = value.ctx.n
        in_grid = 1 <= min(gen) <= max(gen) <= dim
        _require(in_grid, f"generator {tuple(gen)} outside the grid")
        images[tuple(gen)] = value
    _require(dim is not None, "empty derivation spec without dimension")
    return DerivationSpec(build_context(dim), alg, images)


def det_poly_to_json(p: DetPolynomial) -> list:
    return [[k, p[k].to_json()] for k in sorted(p)]


def hh1_to_json(coords: HH1Coordinates) -> dict:
    out = {
        "inner": element_to_json(coords.inner),
        "mu": [det_poly_to_json(m) for m in coords.mu],
    }
    if coords.det_shift:
        out["det_shift"] = coords.det_shift
    return out
