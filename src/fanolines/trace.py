"""Replay of the odd-dimensional half-dimension classification argument.

For a Picard-number-1 term of odd dimension n = 2m+1 whose chain invariant is
exactly m, this module replays the case analysis on the term's actual chains
and emits the inequalities with their concrete values.  The split is whether
some intermediate family H_i (1 <= i <= m-1) is a linear space inside its
projectivised tangent space P_i; detection scans every chain realizing the
invariant, not just the witness chain, because the argument only needs one
such chain to exist.

Every emitted inequality is checked numerically against the actual chain
while it is emitted; a violation raises :class:`~fanolines.errors.TraceError`
since it would mean the engine's own tables contradict each other.  The two
case-2 lines on secant dimensions (d >= 2 gives 2m+1; the d = 1 product
spans only a P^{2m-1}) are not checked here: they cite the secant suite's
``secant.dimension`` record, a rank, and its ``secant.control-span`` record,
a count: the d = 1 product has 2m distinct monomials.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chains import ChainEngine
from .dsl import to_text
from .errors import PreconditionFailed, TraceError
from .families import VERDICT_NAMES, odd_dimension_list, recognition_list, symplectic_scroll
from .terms import (
    SympGrassmann,
    VarietyTerm,
    dim,
    is_linear,
    normalize,
    picard_number,
)


@dataclass(frozen=True)
class TraceReport:
    chain_dims: tuple[int, ...]
    case_tag: str  # "case1" | "case2"
    inequality_lines: tuple[str, ...]
    verdict: str  # one of "a".."e"

    @property
    def conjecture_used(self) -> bool:
        """Case 2 ends in the conjectural scroll recognition rule."""
        return self.case_tag == "case2"


def _linear_step_index(chain: list[VarietyTerm], m: int) -> int | None:
    """Smallest i in 1..m-1 with H_i a linear space in P_i, if any."""
    for i in range(1, m):
        if is_linear(chain[i]):
            return i
    return None


def classification_trace(v: VarietyTerm, engine: ChainEngine | None = None) -> TraceReport:
    """Emit the case analysis for a term with S = (dim - 1) / 2.

    Preconditions: Picard number 1, odd dimension >= 3, and an exact chain
    invariant equal to (dim - 1) / 2.  Violations raise
    :class:`PreconditionFailed` naming the failed predicate.  S and the
    realizing chains are read from ``engine``; ``None`` means a fresh
    :class:`~fanolines.chains.ChainEngine` for this one call.

    Each realizing chain t_0, ..., t_m is checked against the memo before
    any case runs: every node t_i must have invariant m - i, which is what
    realizing means.  The walk follows single-family runs by their rules,
    not by the memo, so an engine whose memo contradicts its own chains
    raises :class:`TraceError` here.
    """
    eng = engine or ChainEngine()
    n = dim(v)
    if picard_number(v) != 1:
        raise PreconditionFailed(f"picard_number({to_text(v)}) = 1 required")
    if n < 3 or n % 2 == 0:
        raise PreconditionFailed(f"dim({to_text(v)}) odd and >= 3 required, got {n}")
    m = (n - 1) // 2
    sv = eng.s_invariant(v)
    if not (sv.is_exact and sv.value == m):
        raise PreconditionFailed(
            f"s_invariant({to_text(v)}) = exact {m} required, got S {sv}"
        )

    chains = list(eng.realizing_chains(v))
    if not chains or any(len(chain) - 1 != m for chain in chains):
        raise TraceError(
            f"no materialized chain below {to_text(v)} achieves the memoized"
            f" invariant {m}"
        )
    for chain in chains:
        for i, t in enumerate(chain):
            st = eng.s_invariant(t)
            if st.value != m - i:
                raise TraceError(
                    f"the chain below {to_text(v)} reaches {to_text(t)} at step {i},"
                    f" whose memoized invariant {st.value} is not m - {i} = {m - i}"
                )
    case2 = None
    for chain in chains:
        i = _linear_step_index(chain, m)
        if i is not None:
            case2 = (chain, i)
            break
    if case2 is None:
        return _trace_case1(v, eng, n, m, chains[0])
    return _trace_case2(v, eng, n, m, *case2)


def _require(lines: list[str], condition: bool, line: str):
    """Append ``line`` once ``condition`` has checked it on the actual chain."""
    if not condition:
        raise TraceError(f"trace inequality failed on the actual chain: {line}")
    lines.append(line)


def _trace_case1(v, eng, n, m, chain) -> TraceReport:
    dims = tuple(dim(t) for t in chain)
    lines = [f"chain dimensions n_0..n_m: {', '.join(map(str, dims))}"]
    if m == 1:
        lines.append("no intermediate steps to test: case 1 holds vacuously")
    else:
        lines.append(
            "no H_i (1 <= i <= m-1) is a linear space in P_i on any chain"
            " realizing the invariant"
        )
    delta = dims[0] - dims[1]
    line = f"X is not a linear space, so n_0 - n_1 >= 2 (here n_0 - n_1 = {delta})"
    _require(lines, delta >= 2, line)
    if m >= 2:
        line = (
            f"every later step drops by at least 2, so n_0 - n_1 <="
            f" ({n}) - 2(m-1) = 3"
        )
        _require(lines, delta <= 3, line)

    nv = normalize(v)
    candidates = recognition_list(n, dims[1])
    if delta == 2:
        line = "dim H_1 = n - 2 with Picard number 1: X is a quadric hypersurface"
        _require(lines, nv in candidates, line)
    elif delta != 3:
        raise TraceError(f"case 1 with n_0 - n_1 = {delta}: outside the recognition lists")
    elif m >= 3:
        raise TraceError(
            f"case 1 with n_0 - n_1 = 3 and m = {m} >= 3: the index-(n-1)"
            " candidates cannot sustain a chain of length m"
        )
    else:
        lines.append(
            "dim H_1 = n - 3 with Picard number 1: X is a cubic hypersurface,"
            " an intersection of two quadrics, or a linear section of G(2,5)"
        )
        cubic, two_quadrics, section = candidates  # n is 3 or 5
        if m == 1:
            if nv not in candidates:
                raise TraceError(f"{to_text(nv)} is not on the n = 3 recognition list")
            lines.append(f"n = 3: X is {VERDICT_NAMES[odd_dimension_list(m)[nv]]}")
        else:
            labels = (f"a cubic hypersurface in P^{cubic.N}",
                      f"an intersection of two quadrics in P^{two_quadrics.N}")
            for cand, label in zip((cubic, two_quadrics), labels):
                s_cand = eng.s_invariant(cand)
                line = (
                    f"{label} has invariant {s_cand.value}, not {m}: the second"
                    " family is an intersection not covered by lines, so it is excluded"
                )
                _require(lines, s_cand.is_exact and s_cand.value < m, line)
            line = (
                "the remaining candidate, a hyperplane section of G(2,5) in P^9,"
                " is isomorphic to SG(2,C^5)"
            )
            _require(lines, nv == section, line)
    return TraceReport(dims, "case1", tuple(lines), odd_dimension_list(m)[nv])


def _trace_case2(v, eng, n, m, chain, i) -> TraceReport:
    dims = tuple(dim(t) for t in chain)
    lines = [f"chain dimensions n_0..n_m: {', '.join(map(str, dims))}"]
    line = f"H_{i} is a linear space in P_{i} (minimal such index, i = {i})"
    minimal = is_linear(chain[i]) and (i == 1 or not is_linear(chain[i - 1]))
    _require(lines, minimal, line)

    line = f"from step {i} on the chain runs through hyperplanes: n_j = m - j for j >= {i}"
    _require(lines, all(dims[j] == m - j for j in range(i, m + 1)), line)

    line = (
        f"if H_{i-1} had Picard number 1, a proper linear family forces"
        f" (n_{i-1} - 4)/2 >= n_{i} = {m - i}, giving"
        f" {n} >= 2({i}-1) + n_{i-1} >= 2({i}-1) + 2({m}-{i}) + 4 = {2*m+2}:"
        f" contradiction, so rho(H_{i-1}) >= 2"
    )
    _require(lines, dims[0] - dims[i - 1] >= 2 * (i - 1), line)

    line = f"in particular i >= 2 and m >= 3 (here i = {i}, m = {m})"
    _require(lines, i >= 2 and m >= 3, line)

    line = (
        f"H_{i-1} is embedded in P_{i-1} = P^{dims[i-2]-1} with rho >= 2:"
        f" small-codimension bound n_{i-2} >= 2 n_{i-1}"
        f" (here {dims[i-2]} >= {2 * dims[i-1]})"
    )
    _require(lines, dims[i - 2] >= 2 * dims[i - 1], line)

    line = (
        "no variety on the small-family recognition lists admits a linear"
        f" step, so n_0 - n_1 >= 4 (here n_0 - n_1 = {dims[0] - dims[1]})"
    )
    _require(lines, dims[0] - dims[1] >= 4, line)

    line = (
        f"if i >= 3 then {n} >= 4 + 2(i-3) + n_(i-2) >= {2*m+2}:"
        f" contradiction, so i = 2"
    )
    _require(lines, i == 2, line)

    line = f"n_0/2 >= n_1 >= m forces n_1 = m (here n_1 = {dims[1]})"
    _require(lines, dims[1] == m, line)

    line = f"2 n_1 = {2*dims[1]} >= n_0 - 1 = {n-1}: H_1 is non-degenerate in P_1 = P^{2*m}"
    _require(lines, 2 * dims[1] >= n - 1, line)

    h1 = chain[1]
    s_h1 = eng.s_invariant(h1)
    line = (
        f"S(H_1) = m - 1 = n_1 - 1 (here S(H_1) = {s_h1.value}):"
        f" H_1 is (P^1 x P^{m-1}, O(d,1)) or"
        f" P(O(d+1) + O(d)^{m-1}) for some d >= 1"
    )
    _require(lines, s_h1.is_exact and s_h1.value == m - 1, line)
    line = (
        "H_1 sits in a projective space of dimension 2m: for d >= 2 either"
        f" candidate has secant variety of dimension {2*m+1}, too large for an"
        " isomorphic projection, so d = 1"
    )
    lines.append(line)
    line = (
        f"with d = 1 the Segre P^1 x P^{m-1} spans only a P^{2*m-1}:"
        " degenerate in P_1, excluded"
    )
    lines.append(line)
    nv = normalize(v)
    line = (
        f"H_1 = P(O(2) + O(1)^{m-1}) spanning P^{2*m}: the scroll recognition"
        f" rule (conjectural) identifies X = SG(2,C^{m+3})"
    )
    _require(lines, normalize(h1) == symplectic_scroll(m) and nv == SympGrassmann(2, m + 3),
             line)
    return TraceReport(dims, "case2", tuple(lines), odd_dimension_list(m)[nv])
