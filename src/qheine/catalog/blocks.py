"""The shipped block library of ``heine_engine.compose``: the catalog's
summations drawn with random admissible parameters, and one
counterexample."""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from mpmath import mp, mpmathify

from ..errors import InvalidConfig, UnknownIdentity
from ..multisum import Summation
from ..qcore import raw_mul
from .an_qbinomial import EXTRA_A, EXTRA_C, extra_c_summation, gk_summation
from .an_qbinomial import milne_lilly_summation
from .classical import q_euler_summation, qbin_summation
from .core import COEFFICIENT, DISTINCT, ParamSpec, draw_params, each, signed
from .kajihara import GRID, GRID_C, NEAR_ONE, kajihara_summation

__all__ = [
    "BLOCKS", "BLOCK_NAMES", "SHIPPED_BLOCK_NAMES", "block_dims", "broken_block",
    "sample_block",
]


def broken_block(a, base) -> Summation:
    """Deliberate homogeneity counterexample: the q-binomial summand times
    (z; base)_k, the argument inside a rising factorial (no ``TermSpec``)."""
    a, base = mpmathify(a), mpmathify(base)
    summation = qbin_summation(a, base)
    qbin = summation.term

    def term(P, z, k):
        return raw_mul(qbin(P, z, k), P.finite(z, base, k[0]), mp.prec)

    return replace(summation, term=term, label="broken")


@dataclass(frozen=True)
class BlockFamily:
    """A block family: its dimension names, its parameters in draw order
    (``ParamSpec``), and ``build(*params, base, prec)``, which takes them in
    that order and binds the summation in ``base``."""

    dim_names: tuple[str, ...]
    schema: tuple[ParamSpec, ...]
    build: Callable[..., Summation]


_A = ParamSpec("a", COEFFICIENT)
_X = ParamSpec("x", DISTINCT, "n")

BLOCKS = {
    "q_bin": BlockFamily((), (_A,), lambda a, base, prec: qbin_summation(a, base)),
    "milne_lilly": BlockFamily(
        ("n",), (ParamSpec("a", COEFFICIENT, "n"), _X), milne_lilly_summation
    ),
    "gk": BlockFamily(("n",), (_A, _X), gk_summation),
    "extra_c": BlockFamily(
        ("n",),
        (ParamSpec("a", EXTRA_A, "n"), ParamSpec("c", EXTRA_C), _X),
        extra_c_summation,
    ),
    "kajihara": BlockFamily(
        ("n", "m"),
        (
            ParamSpec("a", GRID, "n"),
            ParamSpec("b", GRID, "m"),
            ParamSpec("c", GRID_C),
            ParamSpec("x", NEAR_ONE, "n"),
            ParamSpec("y", NEAR_ONE, "m"),
        ),
        kajihara_summation,
    ),
    "q_euler": BlockFamily(
        (),
        (_A, ParamSpec("b", COEFFICIENT), ParamSpec("c", each(signed, 0.3, 0.9))),
        q_euler_summation,
    ),
    "broken": BlockFamily((), (_A,), lambda a, base, prec: broken_block(a, base)),
}

SHIPPED_BLOCK_NAMES = ("q_bin", "milne_lilly", "gk", "extra_c", "kajihara")
BLOCK_NAMES = tuple(BLOCKS)


def block_dims(name: str, dims: Sequence[int]) -> dict[str, int]:
    """The dimension assignment of the named block family: ``dims`` gives
    one value per name of its ``dim_names``, in that order, and a missing
    one is 1.  A one-fold family has no names and takes nothing or ``(1,)``;
    a value below 1 or beyond the names is refused."""
    try:
        names = BLOCKS[name].dim_names
    except KeyError:
        raise UnknownIdentity(f"no block family named {name!r}") from None
    dims = tuple(dims)
    if min(dims, default=1) < 1 or (len(dims) > len(names) and dims != (1,)):
        raise InvalidConfig(f"block {name!r} with dimensions {names} cannot take {dims}")
    return dict(zip(names, (*dims, *(1,) * len(names))))


def sample_block(
    name: str, rng: random.Random, dims: Sequence[int], base, prec: int
) -> Summation:
    """Draw a block of the named family with random admissible parameters
    at the dimensions ``block_dims`` reads from ``dims``; the blocks that
    derive constants from them multiply at ``prec`` bits."""
    assignment = block_dims(name, dims)
    family = BLOCKS[name]
    params = draw_params(family.schema, rng, assignment, None)
    return family.build(*params.values(), base, prec)
