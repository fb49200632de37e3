"""The chain invariant: a memoized walk over iterated families of lines.

A chain X |= H_1 |= ... |= H_m iterates the family-of-lines construction as
long as each step is covered by lines; the invariant S is the greatest
attainable chain length.  The invariant is exact whenever every branch has a
rewrite rule; a ruleless branch degrades the result to a lower bound, unless
the exact branches already attain the cap S <= dim placed on the unknown one.

The family rules live in :mod:`fanolines.families`.  The invariant, the
realizing chains and the covering bound read only the family varieties,
through :func:`~fanolines.families.family_outcome`, which builds no
:class:`~fanolines.families.FamilyRecord`.  The invariant is the one
memoized walk over the chains below a term.  It follows each run of
single-family nodes (P -> P, Q -> Q, CI -> CI, the linear tail below a scroll
or a Segre product) in a loop and stores the run's values on the way back
up; only a node with several families (a product with several degree-1
factors, whose families are linear spaces) recurses, so the depth of the
Python stack does not grow with the chain.  The run keeps only each node's
memo key.  On the way back up a node is exact when its family is, or when
the family's value reaches the family's dimension, its cap; a normal form
has the dimension of the family it came from, so the cap is read from the
family's key, the node below.  Nothing is stored per node beyond the memo.

The realizing chains follow the same runs by their rule alone: the
invariant sets S(node) = 1 + S(family) on every single-family node, so the
one family always realizes what is left of the chain.  Only a node with
several families reads the memo, to keep the families that realize it.

The maximal linear subspace is an engine view, next to the covering bound:
the normal form's ruling table, or else its invariant as a lower bound.

There is no process-wide engine: each caller holds its own
:class:`ChainEngine`, and the memo lives exactly as long as that engine.

>>> from fanolines.terms import Quadric
>>> ChainEngine().s_invariant(Quadric(7))
Bound(kind='exact', value=3)
"""

from __future__ import annotations

from collections.abc import Iterator

from .dsl import to_text
from .errors import NotCoveredByLines
from .families import family_outcome
from .terms import (
    Bound,
    VarietyTerm,
    at_least,
    covered_by_lines,
    exact,
    normalize,
)


def _family_sort_key(fam: VarietyTerm) -> str:
    return to_text(normalize(fam))


class ChainEngine:
    """Chain-invariant computations with a memo table keyed on normal forms.

    Results are pure functions of the term, so concurrent use is safe up to
    idempotent re-insertion of identical memo entries.  Identical subchains
    (linear-space tails in particular) dominate the walk, which is why memo
    keys are normalized terms.  A single-family run is walked in a loop, so
    the answer at any depth does not depend on how warm the memo is.  The
    invariant is the only memoized quantity.  Chains are rebuilt on every
    call: a single-family run is followed by its rule alone, and only nodes
    with several families read the memo.
    """

    def __init__(self):
        self._s_memo: dict[VarietyTerm, Bound] = {}

    def s_invariant(self, v: VarietyTerm) -> Bound:
        """Greatest chain length below ``v`` (0 when not covered by lines)."""
        memo = self._s_memo
        key = v._normalize()
        out = memo.get(key)
        if out is not None:
            return out
        run = []  # the key of each single-family node walked through
        while out is None:
            fams, end = family_outcome(v)
            if len(fams) == 1:
                v = fams[0][0]
                run.append(key)
                key = v._normalize()
                out = memo.get(key)
            elif end == "no_rule":
                # Covered by lines, so a chain of length one exists; nothing
                # more can be said without a rule.
                out = memo[key] = at_least(1)
            else:
                best = 0  # also the value where no family exists
                cap = 0  # what the inexact branches could reach at most
                for fam, _, _ in fams:
                    sub = self.s_invariant(fam)
                    best = max(best, 1 + sub.value)
                    if not sub.is_exact:
                        # The unknown branch can reach at most the dimension
                        # of its variety.
                        cap = max(cap, 1 + fam._dim())
                out = memo[key] = exact(best) if cap <= best else at_least(best)
        # Back up the run: one family is exact when its value is, or when it
        # already reaches the cap dim(family) of the loop above.  A normal
        # form has the dimension of the family it came from, so the cap is
        # read from the family's key, the one walked just below.
        is_exact = out.kind == "exact"
        value = out.value
        for parent in reversed(run):
            is_exact = is_exact or value >= key._dim()
            value += 1
            out = memo[parent] = exact(value) if is_exact else at_least(value)
            key = parent
        return out

    def witness_chain(self, v: VarietyTerm) -> list[VarietyTerm]:
        """A maximal chain achieving the invariant, terminal object included.

        This is the first of :meth:`realizing_chains`: ties between equally
        deep branches go to the lexicographically smallest canonical
        serialization, so the output is reproducible.
        """
        if not covered_by_lines(v):
            raise NotCoveredByLines(f"{to_text(v)} is not covered by lines")
        return next(self.realizing_chains(v))

    def realizing_chains(self, v: VarietyTerm) -> Iterator[list[VarietyTerm]]:
        """Every chain below ``v`` whose length attains the invariant's value.

        Depth first, with the families of each node in sort order.  A run of
        single-family nodes extends the current path in place by its rule
        alone; only a node with several families reads the memo, keeping
        the families with 1 + S(family) equal to its target, and pending
        nodes of a branch wait on an explicit stack.  The one current path
        is copied only when a chain is yielded.
        """
        top = self.s_invariant(v).value
        path: list[VarietyTerm] = []
        stack = [(v, 0)]  # (node, its depth on the path)
        while stack:
            node, depth = stack.pop()
            del path[depth:]
            path.append(node)
            steps = []
            while depth < top:  # a chain of length top ends at depth top
                fams, _ = family_outcome(node)
                if len(fams) != 1:
                    steps = [fam for fam, _, _ in fams
                             if 1 + self.s_invariant(fam).value == top - depth]
                    break
                # S(node) = 1 + S(family): the one family realizes the target.
                node = fams[0][0]
                depth += 1
                path.append(node)
            if steps:
                if len(steps) > 1:
                    steps.sort(key=_family_sort_key)
                stack.extend((step, depth + 1) for step in reversed(steps))
            else:
                yield list(path)

    def max_linear_in(self, v: VarietyTerm) -> Bound:
        """Maximal dimension of a linear subspace contained in ``v``.

        Asked of the normal form: exact where the classical ruling tables
        apply, a lower bound for complete intersections (expected
        Fano-scheme dimension heuristic), and the chain invariant as a lower
        bound for the constructors without a table.
        """
        key = normalize(v)
        ruled = key._max_linear_in()
        return at_least(self.s_invariant(key).value) if ruled is None else ruled

    def covering_ls_bound(self, v: VarietyTerm) -> Bound:
        """Lower bound on the dimension of covering linear spaces.

        The chain invariant itself is such a bound; a linear space inside a
        family lifts to one of one dimension more through the point, which
        can be strictly better (the intersection of two quadrics in P^7 has
        invariant 1 but is covered by planes).
        """
        fams, _ = family_outcome(v)
        lifted = (1 + self.max_linear_in(fam).value for fam, _, _ in fams)
        return at_least(max([self.s_invariant(v).value, *lifted]))
