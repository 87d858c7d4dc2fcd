"""Certified lower bounds for pruning the λ×root sweep.

The λ×root sweep of :meth:`repro.core.service.ConnectorService._solve_ws`
scores one candidate connector per ``(root, λ)`` pair and keeps the
strict-improvement minimum.  This module supplies **provable lower
bounds** on the scores those candidates can achieve, so the sweep may
skip a pair — or a whole root — whose bound already exceeds the running
incumbent, *without ever changing the answer*.

Certification argument
----------------------

Write ``M`` for the final minimum key of the sweep and consider a pruned
pair whose bound ``b`` exceeded the incumbent at decision time.  The
incumbent is non-increasing, so ``b > incumbent >= M``; every score the
pruned pair could have contributed is ``>= b > M``, hence the pair can
neither attain the minimum nor (by induction over the canonical pair
order — see ``_solve_ws``) ever update the incumbent in the unpruned
run either.  The two runs therefore hold equal incumbents at every pair
both process, make the same strict-improvement updates, and finish on
the same ``(nodes, root, λ, key)``.

Two properties carry that induction and are load-bearing:

* **Bounds must hold under any scoring root.**  The sweep deduplicates
  candidates (``if candidate in scored``), so pruning a root can hand a
  shared candidate's *first* encounter — and, for root-dependent proxy
  scores, its recorded key — to a different root.  Every root-level
  bound below therefore lower-bounds the candidate's score under *every*
  root that could end up scoring it, not just the generating one
  (:func:`proxy_score_floor` minimizes over the whole root list).
* **Bounds must be bit-deterministic across shard replicas,
  warm and cold caches.**  Everything here is integer arithmetic over
  exact per-root BFS distances — the tables the sweep has already forced
  for its reachability check — never floating point, never the optional
  :class:`~repro.graphs.landmarks.LandmarkIndex` (which only some
  serving paths own).  The per-root tables are themselves the landmark
  tables of the pruning scheme: every candidate root doubles as a
  landmark whose triangle bounds certify the distances below.

What is bounded
---------------

For a root ``r`` with terminals ``T = Q ∪ {r}``, every candidate the
sweep can produce for ``r`` (any λ, adjust on or off) is a connected
superset of ``T`` containing an ``r``-to-farthest-terminal path, so its
size ``s`` satisfies ``s >= m = max(|T|, D + 1)`` with
``D = max_q d_G(r, q)``.  Induced distances can only grow
(``d_G[C] >= d_G``), which yields closed-form floors per scoring policy:

* exact Wiener (``selection="wiener"``, or small candidates under
  ``"auto"``/``"sampled"``): :func:`exact_score_floor`;
* the proxy ``A(H, r') = |C| * sum_v d_G[C](r', v)`` (``"a"``, or the
  large-candidate tail of ``"auto"``): :func:`proxy_score_floor`;
* the Remark-1 sampled estimator (large-candidate tail of
  ``"sampled"``): every BFS source contributes at least ``s - 1``, so
  the estimate is at least ``C(s, 2)``.

:func:`root_bound` dispatches on the selection policy, taking the
minimum over the size regimes a policy can route a candidate through.
:func:`candidate_bound` is the sharper per-candidate variant used once a
candidate set is known but before its (expensive) score is computed.
"""

from __future__ import annotations

from math import comb

__all__ = [
    "candidate_bound",
    "exact_score_floor",
    "pairwise_gap_sum",
    "proxy_score_floor",
    "root_bound",
]


def pairwise_gap_sum(values: list[int]) -> int:
    """``sum over pairs {i, j} of |values[i] - values[j]|`` in O(n log n).

    Sorted, each element ``x_j`` (0-indexed rank ``j``) is the larger of
    ``j`` pairs and the smaller of ``n - 1 - j``, contributing
    ``x_j * (2j - n + 1)``.  Used on exact per-root distances: since
    ``d(u, v) >= |d_r(u) - d_r(v)|`` (triangle inequality through the
    root's table), the result lower-bounds the sum of pairwise distances
    of the value owners — in the host graph and a fortiori in any
    induced subgraph.
    """
    ordered = sorted(values)
    n = len(ordered)
    return sum(x * (2 * j - n + 1) for j, x in enumerate(ordered))


def exact_score_floor(s: int, eccentricity: int, terminal_pair_sum: int,
                      num_terminals: int) -> int:
    """Floor on the exact Wiener index of any admissible candidate of size ``s``.

    ``eccentricity`` is ``D = max_q d_G(r, q)``; ``terminal_pair_sum`` is
    a certified lower bound on ``sum over pairs of T of d_G(u, v)`` with
    ``num_terminals = |T|``.  Two floors, take the larger:

    * **path floor** — the candidate contains an ``r``-to-farthest-
      terminal path that is shortest *within the candidate*, of length
      ``L >= D``; pairs along it sum to ``C(L+2, 3)`` and the remaining
      ``C(s,2) - C(L+1, 2)`` pairs are each ``>= 1``, which simplifies to
      ``C(s, 2) + C(L+1, 3)`` — increasing in ``L``, so ``L = D`` is
      safe;
    * **terminal floor** — the ``C(|T|, 2)`` terminal pairs contribute at
      least ``terminal_pair_sum`` and every other pair at least 1.

    Both are increasing in ``s``, so evaluating at the regime's minimum
    size bounds the whole regime.
    """
    base = comb(s, 2)
    path_floor = comb(eccentricity + 1, 3)
    terminal_floor = terminal_pair_sum - comb(num_terminals, 2)
    return base + max(path_floor, terminal_floor, 0)


def proxy_score_floor(s: int, scorer_floors: list[tuple[int, int]]) -> int:
    """Floor on ``|C| * sum_v d_G[C](r', v)`` over every possible scorer ``r'``.

    ``scorer_floors`` holds one ``(distance_sum, terminal_count)`` entry
    per root in the sweep's root list: ``distance_sum`` is
    ``sum_{q in Q, q != r'} d_G(r', q)`` (exact, from ``r'``'s table) and
    ``terminal_count`` is ``|Q ∪ {r'}|``.  A candidate scored by ``r'``
    contains ``Q ∪ {r'}``, so its rooted distance sum is at least
    ``distance_sum`` plus 1 per remaining vertex.  The minimum over
    scorers is what certifies pruning in the presence of candidate
    deduplication: a pruned root's candidate may be *scored* by any other
    root that also produces it.
    """
    per_scorer = min(
        distance_sum + max(0, s - terminal_count)
        for distance_sum, terminal_count in scorer_floors
    )
    return s * per_scorer


def root_bound(
    selection: str,
    exact_threshold: int,
    min_size: int,
    eccentricity: int,
    terminal_pair_sum: int,
    num_terminals: int,
    scorer_floors: list[tuple[int, int]],
) -> int:
    """Certified floor on every key any of this root's candidates can get.

    ``min_size`` is ``m = max(|T|, D + 1)``, the provable minimum
    candidate size for this root.  The selection policy decides which
    scoring regimes a candidate can fall into; regimes switch on the
    *actual* size ``s``, so each regime's floor is evaluated at the
    smallest ``s`` that can reach it and the dispatch takes the minimum
    over reachable regimes:

    * ``"wiener"`` — always exact;
    * ``"a"`` — always the proxy, under any scorer;
    * ``"auto"`` — exact for ``s <= exact_threshold`` (unreachable when
      ``m`` already exceeds it), proxy for ``s > exact_threshold``
      (reachable from ``max(m, exact_threshold + 1)`` up);
    * ``"sampled"`` — exact below the threshold, the sampled estimator's
      ``C(s, 2)`` floor above it.
    """
    exact = exact_score_floor(
        min_size, eccentricity, terminal_pair_sum, num_terminals
    )
    if selection == "wiener":
        return exact
    if selection == "a":
        return proxy_score_floor(min_size, scorer_floors)
    overflow_size = max(min_size, exact_threshold + 1)
    if selection == "auto":
        overflow = proxy_score_floor(overflow_size, scorer_floors)
    else:  # "sampled"
        overflow = comb(overflow_size, 2)
    if min_size > exact_threshold:
        return overflow
    return min(exact, overflow)


def candidate_bound(
    selection: str,
    exact_threshold: int,
    size: int,
    root_distances: list[int],
    induced_edges: int,
) -> int:
    """Certified floor on the key of one *known* candidate before scoring it.

    ``root_distances`` are the exact host distances from the scoring root
    to every candidate vertex (from the root's BFS table — every
    candidate vertex is root-reachable by construction);
    ``induced_edges`` is ``|E(G[C])|``.  Unlike :func:`root_bound` the
    scoring root here is pinned — the sweep computes this bound exactly
    where the unpruned sweep would compute the score, so the same root
    scores (or skips) the same candidate on every serving path.

    * exact regime: ``d_G[C](u, v) >= |d_r(u) - d_r(v)|`` summed by
      :func:`pairwise_gap_sum`, against the edge-deficit floor
      ``2 C(s,2) - |E(G[C])|`` (non-adjacent pairs are at distance >= 2);
    * proxy regime: ``s * sum_v d_G(r, v)`` — induced distances only
      grow, so the host-table sum is a floor (and a tight one);
    * sampled regime: ``C(s, 2)``.
    """
    use_exact = selection == "wiener" or (
        selection in ("auto", "sampled") and size <= exact_threshold
    )
    if use_exact:
        gap_floor = pairwise_gap_sum(root_distances)
        deficit_floor = 2 * comb(size, 2) - induced_edges
        return max(gap_floor, deficit_floor)
    if selection == "sampled":
        return comb(size, 2)
    return size * sum(root_distances)
