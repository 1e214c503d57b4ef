"""The one search-tree driver behind every enumeration backend.

This module holds the paper's recursion exactly once — as a
**template**.  The control flow of ``PMUCE`` (Algorithm 3, lines 6–21)
— the M-pivot do-while with periphery re-evaluation (Theorem 4.2,
Lemmas 3–4), the K-pivot size stop (Lemmas 5–6), emission, and every
sanitizer/observer hook site — lives in :func:`_search_template`.  The
template is never executed as written: :func:`build_search` is a
dispatcher that folds the module-level specialization flags (``HOOKS``,
``BITSET``, ``KPIVOT``, ...) into the template's AST and compiles one
recursion **variant** per configuration shape (see
:func:`variant_key`).  Because every variant is a partial evaluation of
the same function, the hooked variant provably contains every
REP007/REP008 hook site, and the hookless variants provably contain
none — the REP009 lint rule re-renders the variants and checks exactly
that.

Three shapes exist:

``generic``
    Devirtualized :class:`~repro.engine.protocol.SearchOps` calls bound
    as closure cells, zero hook branches.  The production shape of the
    dict backend.
``generic+hooks``
    The same, plus the sanitizer/observer hook sites.  Chosen whenever
    a sanitizer or a per-node observer (``obs="metrics"``/``"full"``,
    see :data:`repro.obs.observer.RECURSION_HOOK_LEVELS`) is attached,
    for either backend.  A ``light`` observer is lifecycle-only: it
    keeps the production shape below.
``bitset``
    The hot loop stays in bitset domain end to end: big-int candidate
    sets with per-survivor threshold tests, per-color bit masks with a
    popcount for the Lemma-6 bound, a bitset periphery ``Q``, and a
    **lazy exclusion set** — ``X`` is maintained as a pure bitset (one
    AND per expand) and the maximality verdict is deferred to the
    leaves, where a per-witness ``-log`` sum with the same certainty
    band as the eager path (plus a full per-level exact replay inside
    the band) reproduces the dict backend's decisions bit for bit.
    Chosen when hooks are off and the backend publishes the
    ``fast_ops`` capability (:meth:`~repro.engine.protocol.StateOps
    .fast_ops`).

The run lifecycle (reduction/ordering phases, hook wiring, the seed
loop, recursion-limit management, counter flushing) lives in
:class:`SearchEngine`.  Backends supply only state algebra through the
:class:`~repro.engine.protocol.StateOps` protocol, so a new backend
cannot diverge from the search semantics: there is no second copy to
drift.

Performance notes.  Each variant is compiled once per process and
instantiated once per run into a closure whose free variables hold the
backend's hot-path state, the remaining dynamic flags, and the search
counters — a cell load costs the same as a local, where repeated
attribute lookups across ~10⁶ calls are a measurable slice of the
runtime.  Counters are folded into the shared
:class:`~repro.core.stats.SearchStats` once, by ``flush``.  A viable
child with no candidates is inlined (it only counts itself and
possibly emits), so the dominant leaf case skips the recursive call.
The maximum η-clique ``P`` is no longer threaded through the call
arguments: ``search`` returns ``None`` to mean "no clique longer than
my own ``r`` was found", and parents materialize ``r + [u]`` only when
it actually improves their best — which removes a ``list(r)`` copy per
expansion.
"""

from __future__ import annotations

import ast
import copy
import inspect
import sys
import textwrap
from time import perf_counter

from repro.engine.protocol import validate_state_ops


class _StopSearch(Exception):
    """Internal signal: the configured output limit was reached."""


# ----------------------------------------------------------------------
# specialization flags
# ----------------------------------------------------------------------
#: The specialization axes.  Inside :func:`_search_template` these
#: module-level names are compile-time constants: the specializer folds
#: every ``if`` whose truth they decide and removes the dead branch.
#: The module-level values are never consulted at runtime — only the
#: folded variants execute.
_SPEC_FLAGS = (
    "HOOKS",        # sanitizer/observer hook sites present
    "BITSET",       # bitset fast path (fast_ops capability)
    "HYBRID",       # hybrid pivot rule, inlined (bitset shape only)
    "KPIVOT",       # K-pivot stops enabled (size or color)
    "COLOR_BOUND",  # Lemma-6 color bound on top of the size stop
    "IMPROVED",     # M-pivot periphery: improved re-evaluation
    "BASIC",        # M-pivot periphery: basic (first cover wins)
    "WIDESCAN",     # GenerateSet scans set bits, not the parent list
)

HOOKS = False
BITSET = False
HYBRID = False
KPIVOT = False
COLOR_BOUND = False
IMPROVED = False
BASIC = False
WIDESCAN = False


def _search_template(ops, config, k, stats, sink, limit, san=None, obs=None):
    """The shared recursion template; every variant is folded from it.

    Never call this directly — it would run with every specialization
    flag stuck at ``False``.  :func:`build_search` compiles and caches
    the folded variants and is the only legitimate entry point.

    ``san`` is the backend's sanitizer adapter (or None) and ``obs``
    the :class:`~repro.obs.observer.Observer` (or None); every hook
    fires from exactly one site here, which the REP007/REP008 lint
    rules pin down statically (and REP009 re-checks per variant).

    ``search(r, q, c, x, depth)`` explores the subtree rooted at path
    ``r`` and returns the maximum η-clique strictly longer than ``r``
    found there, or ``None`` when ``r`` itself (length ``len(r)``) is
    the subtree's best — parents then account for the un-materialized
    ``r + [u]`` by length alone.  ``flush()`` folds the closure-cell
    counters into ``stats`` and must run exactly once, after the seed
    loop (even on an aborted run).
    """
    if BITSET:
        fast = ops.fast_ops()
        sv = fast.sv
        nbr_bits = fast.nbr_bits
        nlogr = fast.nlogr
        lb = fast.lb
        cn_lb = fast.cn_lb
        cn_base = fast.cn_base
        deg_cn = fast.deg_cn
        color_bit = fast.color_bit
        bit_at = fast.bit_at
        hi_base = fast.hi_base
        guard2 = fast.guard2
        exact_accept = fast.exact_accept
        exact_x_member = fast.exact_x_member
        popcount = fast.popcount
        select_pivot = fast.select_pivot
        label_of = fast.label_of
        bl = int.bit_length
    else:
        hot = ops.search_ops()
        open_node = hot.open_node
        lb_refresh = hot.lb_refresh
        color_reaches = hot.color_reaches
        expand = hot.expand
        retract = hot.retract
        decode = hot.decode
    log_domain = ops.log_domain
    sink_call = sink
    limit = -1 if limit is None else limit
    calls = expansions = outputs = 0
    mpivot_skips = kpivot_stops = size_prunes = max_depth = 0
    # Bitset image of the recursion path ``r``, maintained
    # incrementally by the bitset shape (two bit-ops per expansion)
    # so a periphery rebuild from ``r`` is one OR instead of a loop.
    # The generic shape declares but never touches it.
    r_bits = 0

    def flush() -> None:
        stats.calls += calls
        stats.expansions += expansions
        stats.outputs += outputs
        stats.mpivot_skips += mpivot_skips
        stats.kpivot_stops += kpivot_stops
        stats.size_prunes += size_prunes
        if max_depth > stats.max_depth:
            stats.max_depth = max_depth

    def search(r, q, c, x, depth):
        nonlocal calls, expansions, outputs, mpivot_skips
        nonlocal kpivot_stops, size_prunes, max_depth, r_bits
        calls += 1
        if depth > max_depth:
            max_depth = depth
        if BITSET:
            if depth == 1:
                r_bits = bit_at[r[0]]
        if HOOKS:
            if san is not None:
                san.on_node(depth)
            if obs is not None:
                obs.on_node(depth, r)
        if not c:
            if BITSET:
                # Deferred maximality, inlined (a closure call per leaf
                # is measurable at ~10^5 leaves): R is maximal iff no
                # exclusion witness in bitset ``x`` still clears the η
                # threshold against the full path ``r``.  The ``-log``
                # partial sums are monotone nondecreasing (every term
                # is >= 0), so a partial sum past ``hi`` is a certain
                # reject at this level *and* was one at every earlier
                # level; a full sum under ``lo`` is a certain accept at
                # every level (exact values are monotone and the band
                # covers the float error of any prefix).  Inside the
                # band, ``exact_x_member`` replays the dict backend's
                # per-level float verdicts — so the deferred test is
                # decision-identical to eager filtering.  Witnesses are
                # independent, so the scan order cannot change the
                # verdict; high-to-low extraction (O(1) ``bit_length``
                # plus a singleton XOR) is cheaper than low-bit
                # isolation's three full-width ops.
                maximal = True
                if x:
                    hi = hi_base - q
                    lo = hi - guard2
                    xb = x
                    while xb:
                        w = bl(xb) - 1
                        xb ^= bit_at[w]
                        row = nlogr[w]
                        s = 0.0
                        for t in r:
                            s += row[t]
                            if s > hi:
                                break
                        else:
                            if s < lo or exact_x_member(w, r):
                                maximal = False
                                break
            else:
                maximal = not x
            if maximal:
                # ``len(r) == depth`` by construction: seeds start at
                # depth 1 with a one-vertex path and every recursion
                # appends exactly one vertex.
                rlen = depth
                if rlen >= k:
                    if HOOKS:
                        if san is not None:
                            san.on_emit(r, q, log_domain)
                        if obs is not None:
                            obs.on_emit(depth, rlen)
                    outputs += 1
                    if BITSET:
                        # ``decode`` devirtualized: one map over the
                        # label table instead of a closure hop per
                        # emitted clique.
                        sink_call(frozenset(map(label_of, r)))
                    else:
                        sink_call(decode(r))
                    if outputs == limit:
                        raise _StopSearch
                if BITSET:
                    if HYBRID:
                        for w in r:
                            if lb[w] < rlen:
                                lb[w] = rlen
                                cn_lb[w] = cn_base[w] + rlen
                else:
                    lb_refresh(r, rlen)
            return None
        rlen = depth
        if BITSET:
            # Ids are rank-ordered and survivors are emitted in
            # ascending id order, so the survivor list is already the
            # sorted work list; the global lower-bound refresh (every
            # candidate v participates in the η-clique R ∪ {v}) is
            # inlined here.
            c_bits, c_list = c
            n_keys = len(c_list)
            if n_keys == 1 and depth != 1:
                # Singleton candidate — a large share of recursive
                # calls on real workloads — runs exactly one
                # expansion: the child intersection C ∩ N(u) is empty
                # by irreflexivity, the second do-while iteration can
                # only stop, and the replacement periphery dies with
                # the frame.  The work-list/do-while machinery (and
                # the net-zero ``r_bits``/``c_bits``/``x`` updates an
                # expand/retract pair would make) folds away; every
                # observable effect of the general path is replicated:
                # the fused refresh of ``u``, one expansion or size
                # prune, the inlined-leaf call, the K-pivot stop the
                # empty work list fires when R ∪ {u} cannot reach k
                # (``need > 0`` on re-entry), and the returned best
                # clique ``r + [u]``.  Depth-1 frames keep the general
                # path: they carry the K-pivot entry check.
                u = c_list[0]
                if HYBRID:
                    size = rlen + 1
                    if lb[u] < size:
                        lb[u] = size
                        cn_lb[u] = cn_base[u] + size
                r.append(u)
                if k - rlen <= 1:
                    # Viable (``need1 <= 0``): open the inlined leaf.
                    expansions += 1
                    calls += 1
                    depth1 = depth + 1
                    if depth1 > max_depth:
                        max_depth = depth1
                    maximal = True
                    x_child = x & nbr_bits[u]
                    if x_child:
                        hi = hi_base - (q + sv[u])
                        lo = hi - guard2
                        xb = x_child
                        while xb:
                            w = bl(xb) - 1
                            xb ^= bit_at[w]
                            row = nlogr[w]
                            s = 0.0
                            for t in r:
                                s += row[t]
                                if s > hi:
                                    break
                            else:
                                if s < lo or exact_x_member(w, r):
                                    maximal = False
                                    break
                    if maximal:
                        # ``rlen >= k - 1`` holds here, so a maximal
                        # leaf always emits.
                        outputs += 1
                        sink_call(frozenset(map(label_of, r)))
                        if outputs == limit:
                            raise _StopSearch
                        if HYBRID:
                            for w in r:
                                if lb[w] < size:
                                    lb[w] = size
                                    cn_lb[w] = cn_base[w] + size
                    if KPIVOT:
                        if k - rlen == 1:
                            kpivot_stops += 1
                else:
                    size_prunes += 1
                    if KPIVOT:
                        kpivot_stops += 1
                r.pop()
                return r + [u]
            if HYBRID:
                # The lower-bound refresh and the first pivot pass are
                # fused into one traversal: each element is refreshed
                # before its ``cn_lb`` is compared, so the first-max
                # argmax reads exactly the refreshed table the
                # two-pass form would, at half the loop overhead.
                size = rlen + 1
                best = -1
                for w in c_list:
                    if lb[w] < size:
                        lb[w] = size
                        wk = cn_base[w] + size
                        cn_lb[w] = wk
                    else:
                        wk = cn_lb[w]
                    if wk > best:
                        best = wk
                        pivot = w
            keys = c_list
        else:
            # ``open_node`` folds the lower-bound refresh into the
            # work-list/pivot computation — one backend call per node.
            keys, pivot = open_node(c, rlen + 1)
        need = k - rlen
        if KPIVOT:
            kpivot_pos = need > 0
            if kpivot_pos and depth == 1:
                # The whole candidate set is a K-pivot periphery
                # (Lemma 5/6): counted plainly it cannot lift R to k,
                # and the color-class count is the tighter Lemma-6
                # bound.  Only seed states need this entry check: a
                # recursive call's ``C`` already passed the parent's
                # ``expand`` viability test, which is the same bound
                # (``need1`` there equals ``need`` here) over the same
                # set — so at ``depth > 1`` the check can never fire
                # and is hoisted away.  The survivor list is
                # materialized, so its ``len`` is the Lemma-5 count
                # (cheaper than a popcount on the bitset); the color
                # bound ORs per-color bit masks and popcounts once.
                stop = len(keys) < need
                if COLOR_BOUND:
                    if not stop:
                        if BITSET:
                            seen = 0
                            for w in keys:
                                seen |= color_bit[w]
                            stop = popcount(seen) < need
                        else:
                            stop = not color_reaches(keys, need)
                if stop:
                    kpivot_stops += 1
                    if HOOKS:
                        if obs is not None:
                            obs.on_prune("kpivot", depth)
                    return None
        if BITSET:
            if HYBRID:
                # Second (degree) pass of the hybrid rule, first-max
                # wins — same vertex as the dict strategy's
                # ``max``-of-filtered passes.  With one candidate the
                # fused pass above already picked it.
                if n_keys > 1 and lb[pivot] <= k:
                    best = -1
                    for w in keys:
                        wk = deg_cn[w]
                        if wk > best:
                            best = wk
                            pivot = w
            elif n_keys == 1:
                pivot = keys[0]
            else:
                pivot = select_pivot(keys)
        # Rank-ordered work list, pivot first.  The do-while of
        # Algorithm 3 runs while some candidate lies outside the
        # *current* periphery Q: a candidate deferred under an
        # earlier, smaller Q becomes eligible again if Q is later
        # replaced by a clique that does not contain it, so
        # eligibility is re-evaluated on every pick.
        if BITSET:
            # One C-speed slice copy; moving the pivot to the front is
            # two C-level list ops on the rare non-front case.
            unexpanded = keys[:]
            if unexpanded[0] != pivot:
                del unexpanded[unexpanded.index(pivot)]
                unexpanded.insert(0, pivot)
            periphery = 0
            qlen = 0
            # Color-margin for the Lemma-6 recheck: after a full count
            # ``margin = popcount(colors) - need``; each removal from
            # the work list kills at most one color class, so while the
            # decremented margin stays >= 0 the true count is still
            # >= need and the OR-loop recount is provably a no-op.
            color_margin = -1
            # Work-list length, maintained arithmetically: the list
            # only ever shrinks through the single ``del`` below, so
            # the per-pick ``len`` calls fold into one decrement.
            n_un = n_keys
            # Eligibility-scan resume point.  Work-list entries before
            # ``scan_from`` were already found inside the *current* Q;
            # Q only ever changes in the post-branch replacement below
            # (which resets this to 0), so re-scanning them on every
            # pick is provably a no-op.  Deferral counts and picks are
            # byte-identical to the full re-scan — this only drops the
            # quadratic walk over the deferred prefix.
            scan_from = 0
        else:
            if keys[0] == pivot:
                unexpanded = keys[:]
            else:
                unexpanded = [pivot] + [v for v in keys if v != pivot]
            periphery = ()
        p = None
        plen = rlen
        if KPIVOT:
            # One flag instead of ``expanded_any and kpivot_pos``:
            # it stays false until the first expansion and carries
            # the positivity check with it, so the per-iteration
            # stop costs a single truth test.
            kcheck = False
        need1 = need - 1
        depth1 = depth + 1
        while True:
            if KPIVOT:
                if kcheck:
                    # The remaining candidate set is a K-pivot
                    # periphery on its own (Lemma 5/6) — no reliance
                    # on Q.  The two stopping rules are applied
                    # independently, never as a merged periphery set
                    # (whose joint soundness the paper does not
                    # establish).
                    if BITSET:
                        stop = n_un < need
                    else:
                        stop = len(unexpanded) < need
                    if COLOR_BOUND:
                        if not stop:
                            if BITSET:
                                color_margin -= 1
                                if color_margin < 0:
                                    seen = 0
                                    for w in unexpanded:
                                        seen |= color_bit[w]
                                    cnt = popcount(seen)
                                    stop = cnt < need
                                    color_margin = cnt - need
                            else:
                                stop = not color_reaches(
                                    unexpanded, need
                                )
                    if stop:
                        kpivot_stops += 1
                        if HOOKS:
                            if obs is not None:
                                obs.on_prune("kpivot", depth)
                        break
            if BITSET:
                if not n_un:
                    break
            else:
                if not unexpanded:
                    break
            if not periphery:
                u = unexpanded[0]
                u_idx = 0
            else:
                u_idx = -1
                if BITSET:
                    idx = scan_from
                    while idx < n_un:
                        w = unexpanded[idx]
                        if not periphery & bit_at[w]:
                            u = w
                            u_idx = idx
                            break
                        idx += 1
                else:
                    for idx, w in enumerate(unexpanded):
                        if w not in periphery:
                            u = w
                            u_idx = idx
                            break
                if u_idx < 0:
                    # Every remaining candidate sits inside the
                    # single, final periphery Q (Lemma 3/4) — safe to
                    # stop.
                    if HOOKS:
                        if san is not None:
                            san.on_cover(depth, r, unexpanded, periphery)
                    if BITSET:
                        mpivot_skips += n_un
                    else:
                        mpivot_skips += len(unexpanded)
                    if HOOKS:
                        if obs is not None:
                            obs.on_prune("mpivot", depth, len(unexpanded))
                    break
            if KPIVOT:
                kcheck = kpivot_pos
            r.append(u)
            if BITSET:
                # GenerateSet (Algorithm 1) in bitset domain: one AND
                # for the whole candidate set, then an additive
                # threshold test per survivor, enumerated through the
                # parent's survivor list (candidate sets are tiny on
                # real workloads, so list traffic beats a byte scan).
                # ``s_new`` below ``lo`` is a certain accept, above
                # ``hi`` a certain reject; the narrow band in between
                # replays the dict backend's exact float decision.
                ubit = bit_at[u]
                r_bits |= ubit
                q_new = q + sv[u]
                nbr = nbr_bits[u]
                nlog_u = nlogr[u]
                hi = hi_base - q_new
                lo = hi - guard2
                c_new = c_bits & nbr
                if c_new:
                    c_next = []
                    keep = c_next.append
                    if WIDESCAN:
                        # Wide graphs: walking the parent list costs
                        # one full-width singleton test per candidate,
                        # so enumerate the set bits of the projected
                        # mask directly.  Extraction runs high-to-low
                        # — ``bit_length`` finds the top bit in O(1)
                        # and the singleton XOR touches only ``w/30``
                        # words, where low-bit extraction needs three
                        # full-width ops — and one C-speed ``reverse``
                        # restores the ascending survivor order
                        # (threshold verdicts are per-vertex, so scan
                        # order cannot change them).
                        m = c_new
                        while m:
                            w = bl(m) - 1
                            low = bit_at[w]
                            m ^= low
                            s_new = sv[w] + nlog_u[w]
                            if s_new < lo or (
                                s_new <= hi and exact_accept(w, r)
                            ):
                                sv[w] = s_new
                                keep(w)
                            else:
                                c_new ^= low
                        c_next.reverse()
                    else:
                        # Narrow graphs: candidate sets are tiny (a
                        # few survivors on real workloads), so walking
                        # the parent's survivor list with one
                        # singleton-mask test each beats big-int bit
                        # extraction.
                        for w in c_list:
                            if c_new & bit_at[w]:
                                s_new = sv[w] + nlog_u[w]
                                if s_new < lo or (
                                    s_new <= hi and exact_accept(w, r)
                                ):
                                    sv[w] = s_new
                                    keep(w)
                                else:
                                    c_new ^= bit_at[w]
                else:
                    # Leaf child: no survivors to score — the shared
                    # empty tuple keeps every downstream consumer
                    # (viability length test, retract loop, child
                    # handle truthiness) on its fast path without
                    # allocating a list or binding its ``append``.
                    c_next = ()
                viable = need1 <= 0
                if not viable and len(c_next) >= need1:
                    if COLOR_BOUND:
                        seen = 0
                        cnt = 0
                        for w in c_next:
                            b = color_bit[w]
                            if not seen & b:
                                seen |= b
                                cnt += 1
                                if cnt == need1:
                                    break
                        viable = cnt >= need1
                    else:
                        viable = True
            else:
                q_new, c_child, x_child, x_token, viable = expand(
                    u, c, x, q, r, need1
                )
            if viable:
                if BITSET:
                    # Lazy X: the child's exclusion set is one AND —
                    # no threshold scan, no ``sv`` writes.  Witnesses
                    # that would have been filtered here are rejected
                    # at the leaves by the inlined witness scan.
                    x_child = x & nbr
                    # A tuple handle: never mutated below this
                    # frame, and a tuple display allocates faster than
                    # a list at ~10^5 children.
                    c_child = (c_new, c_next) if c_next else None
                expansions += 1
                if HOOKS:
                    if obs is not None:
                        obs.on_expand(depth)
                if c_child:
                    branch_best = search(r, q_new, c_child, x_child, depth1)
                    blen = (
                        rlen + 1 if branch_best is None
                        else len(branch_best)
                    )
                else:
                    # Inlined leaf: a child with no candidates only
                    # counts itself and possibly emits — so the
                    # recursive call is skipped entirely.
                    calls += 1
                    if depth1 > max_depth:
                        max_depth = depth1
                    if HOOKS:
                        if san is not None:
                            san.on_node(depth1)
                        if obs is not None:
                            obs.on_node(depth1, r)
                    if BITSET:
                        # The same deferred-maximality scan as the
                        # top-of-call leaf, with ``hi``/``lo`` already
                        # positioned for q_new by the GenerateSet scan.
                        maximal = True
                        if x_child:
                            xb = x_child
                            while xb:
                                w = bl(xb) - 1
                                xb ^= bit_at[w]
                                row = nlogr[w]
                                s = 0.0
                                for t in r:
                                    s += row[t]
                                    if s > hi:
                                        break
                                else:
                                    if s < lo or exact_x_member(w, r):
                                        maximal = False
                                        break
                    else:
                        maximal = not x_child
                    if maximal:
                        if rlen >= k - 1:
                            if HOOKS:
                                if san is not None:
                                    san.on_emit(r, q_new, log_domain)
                                if obs is not None:
                                    obs.on_emit(depth1, rlen + 1)
                            outputs += 1
                            if BITSET:
                                sink_call(frozenset(map(label_of, r)))
                            else:
                                sink_call(decode(r))
                            if outputs == limit:
                                raise _StopSearch
                        if BITSET:
                            if HYBRID:
                                for w in r:
                                    if lb[w] < size:
                                        lb[w] = size
                                        cn_lb[w] = cn_base[w] + size
                        else:
                            lb_refresh(r, rlen + 1)
                    branch_best = None
                    blen = rlen + 1
            else:
                size_prunes += 1
                if HOOKS:
                    if obs is not None:
                        obs.on_prune("size", depth)
                branch_best = None
                blen = rlen + 1
            r.pop()
            if BITSET:
                # Retract: restore ``sv`` for the candidate survivors
                # (the lazy X never touched it) and move ``u`` from C
                # to X in bit domain.
                for w in c_next:
                    sv[w] -= nlog_u[w]
                r_bits ^= ubit
                c_bits ^= ubit
                x |= ubit
            else:
                # Every expand gets its retract — including
                # size-pruned branches, whose projection may have
                # touched shared backend state.
                c, x = retract(u, c, x, c_child, x_token)
            del unexpanded[u_idx]
            if BITSET:
                n_un -= 1
                # Entries below ``u_idx`` are still the verified-inside
                # prefix; the replacement below resets this when Q
                # changes and the verification no longer applies.
                scan_from = u_idx
            # ``branch_best is None`` stands for the un-materialized
            # ``r + [u]`` (length ``blen``); build it only when it
            # actually replaces the periphery or the best ``p``.
            if IMPROVED or (BASIC and not periphery):
                if BITSET:
                    if qlen < blen:
                        if branch_best is None:
                            # ``r_bits`` already excludes ``u`` here
                            # (the retract above cleared it), so the
                            # un-materialized ``r + [u]`` is one OR.
                            periphery = r_bits | ubit
                        else:
                            bits = 0
                            for w in branch_best:
                                bits |= bit_at[w]
                            periphery = bits
                        qlen = blen
                        scan_from = 0
                else:
                    if len(periphery) < blen:
                        if branch_best is None:
                            periphery = set(r)
                            periphery.add(u)
                        else:
                            periphery = set(branch_best)
            if plen < blen:
                p = branch_best if branch_best is not None else r + [u]
                plen = blen
        return p

    return search, flush


# ----------------------------------------------------------------------
# the specializer
# ----------------------------------------------------------------------
def _fold_test(node, env):
    """Partially evaluate an ``if`` test over the spec-flag names.

    Returns ``True``/``False`` when the flags decide the test, else an
    AST with the decided operands removed.  Folding is by *truthiness*
    over pure operands — exactly the contract of an ``if`` test — so
    dropping a decided operand from a ``BoolOp`` is sound regardless of
    its position.
    """
    if isinstance(node, ast.Name) and node.id in env:
        return bool(env[node.id])
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        inner = _fold_test(node.operand, env)
        if inner is True:
            return False
        if inner is False:
            return True
        if inner is node.operand:
            return node
        return ast.UnaryOp(op=ast.Not(), operand=inner)
    if isinstance(node, ast.BoolOp):
        is_or = isinstance(node.op, ast.Or)
        residue = []
        for operand in node.values:
            value = _fold_test(operand, env)
            if value is True:
                if is_or:
                    return True
            elif value is False:
                if not is_or:
                    return False
            else:
                residue.append(value)
        if not residue:
            # All operands folded to the neutral element.
            return not is_or
        if len(residue) == 1:
            return residue[0]
        if len(residue) == len(node.values) and all(
            a is b for a, b in zip(residue, node.values)
        ):
            # Nothing folded — hand back the original node so callers
            # (and the fold-decision record) can tell this test was
            # never touched.
            return node
        return ast.BoolOp(op=node.op, values=residue)
    return node


class _Specializer(ast.NodeTransformer):
    """Fold spec-flag ``if`` statements; leave everything else alone.

    Every decision the fold makes is recorded in :attr:`decisions` as a
    ``(lineno, test_source, outcome)`` triple — ``outcome`` is ``True``
    (then-branch spliced), ``False`` (else-branch spliced), or
    ``"residual"`` (the test was only partially decided).  The record is
    what :func:`fold_record` hands to the translation validator: it is
    the specializer's own account of *why* each variant looks the way it
    does, which the validator re-derives independently and cross-checks.
    """

    def __init__(self, env):
        self.env = env
        self.decisions = []

    def _decide(self, node, outcome):
        self.decisions.append(
            (
                getattr(node, "lineno", 0),
                ast.unparse(node.test),
                outcome,
            )
        )

    def visit_If(self, node):
        self.generic_visit(node)
        test = _fold_test(node.test, self.env)
        if test is True:
            self._decide(node, True)
            return node.body
        if test is False:
            self._decide(node, False)
            return node.orelse or ast.Pass()
        if test is not node.test:
            self._decide(node, "residual")
        node.test = test
        return node


#: Modules whose sources define what an enumeration run *means*: the
#: recursion driver and its protocol, both StateOps backends with the
#: projection kernels they drive, and the reductions/ordering that
#: shape the search space.  The run store's engine salt hashes exactly
#: these (the verified-manifest pattern of :mod:`repro.analysis.cache`):
#: a module that fails to import must fail the salt loudly, never
#: silently narrow it so that stale results survive an engine change.
_SEMANTIC_MODULES = (
    "repro.engine.driver",
    "repro.engine.protocol",
    "repro.core.pmuc",
    "repro.core.candidates",
    "repro.core.pivot",
    "repro.kernel.enumerate",
    "repro.kernel.compact",
    "repro.kernel.reduction",
    "repro.reduction.ordering",
    "repro.reduction.topk_core",
    "repro.reduction.topk_triangle",
)


def engine_source_manifest():
    """``(module name, source bytes)`` per semantics-bearing module.

    The manifest is what the run store folds into its engine version
    salt (see :func:`repro.store.key.engine_salt`): any byte change in
    these files invalidates every stored run, because stored counters
    and clique sets are only replayable while the search semantics
    that produced them are unchanged.  Raises ``RuntimeError`` when a
    module cannot be imported or read — a partial manifest must never
    hash to a valid salt.
    """
    import importlib

    entries = []
    for name in _SEMANTIC_MODULES:
        try:
            module = importlib.import_module(name)
            with open(module.__file__, "rb") as handle:
                entries.append((name, handle.read()))
        except Exception as error:
            raise RuntimeError(
                "engine salt would not cover module %s: %s" % (name, error)
            ) from error
    return entries


def variant_key(ops, config, san=None, obs=None):
    """The specialization key for one run's configuration.

    ``(shape, hooks, kpivot, mpivot, hybrid, widescan)`` — ``shape``
    is ``"bitset"`` when hooks are off and the backend publishes the
    ``fast_ops`` capability, else ``"generic"``; ``hybrid`` and
    ``widescan`` are normalized to ``False`` for the generic shape
    (pivot selection and GenerateSet are the backend's there).
    ``widescan`` is the backend's own call — the kernel asks for the
    set-bit GenerateSet scan once singleton-mask tests get wide.
    """
    hooks = san is not None or obs is not None
    if not hooks:
        fast_cap = getattr(ops, "fast_ops", None)
        if fast_cap is not None:
            fast = fast_cap()
            if fast is not None:
                return (
                    "bitset",
                    False,
                    config.kpivot,
                    config.mpivot,
                    config.pivot == "hybrid",
                    bool(getattr(fast, "wide_scan", False)),
                )
    return ("generic", hooks, config.kpivot, config.mpivot, False, False)


def variant_id(key):
    """Short human-readable variant name stamped into run records."""
    shape, hooks = key[0], key[1]
    wide = len(key) > 5 and key[5]
    return shape + ("+hooks" if hooks else "") + ("+wide" if wide else "")


def legal_variant_keys():
    """Every key the dispatcher can produce (the REP009 check space).

    The pivot axes enumerate the :class:`~repro.core.config.PivotConfig`
    value spaces (``KPIVOT_CHOICES`` / ``MPIVOT_CHOICES``) verbatim —
    the dispatcher passes the config values through unchanged.
    """
    keys = []
    for kpivot in ("off", "plain", "color"):
        for mpivot in ("off", "basic", "improved"):
            for hybrid in (False, True):
                for wide in (False, True):
                    keys.append(
                        ("bitset", False, kpivot, mpivot, hybrid, wide)
                    )
            keys.append(("generic", False, kpivot, mpivot, False, False))
            keys.append(("generic", True, kpivot, mpivot, False, False))
    return keys


def _flag_env(key):
    """Spec-flag assignment for ``key`` (one value per ``_SPEC_FLAGS``)."""
    shape, hooks, kpivot, mpivot, hybrid, widescan = key
    return {
        "HOOKS": hooks,
        "BITSET": shape == "bitset",
        "HYBRID": hybrid,
        "KPIVOT": kpivot != "off",
        "COLOR_BOUND": kpivot == "color",
        "IMPROVED": mpivot == "improved",
        "BASIC": mpivot == "basic",
        "WIDESCAN": shape == "bitset" and widescan,
    }


_TEMPLATE_MODULE = None
_VARIANTS = {}


def _template_module():
    global _TEMPLATE_MODULE
    if _TEMPLATE_MODULE is None:
        source = textwrap.dedent(inspect.getsource(_search_template))
        _TEMPLATE_MODULE = ast.parse(source)
    return _TEMPLATE_MODULE


class FoldRecord:
    """One specialization, with the specializer's own audit trail.

    ``module`` is the folded one-function module AST (same object
    :func:`render_variant` returns), ``env`` the full spec-flag
    assignment that produced it, and ``decisions`` the ordered
    ``(lineno, test_source, outcome)`` triples recorded by
    :class:`_Specializer` — one per ``if`` the fold decided or
    simplified.  The translation validator
    (:mod:`repro.analysis.semantics`) consumes fold records instead of
    re-implementing the fold: the variant side of every comparison is
    exactly what the production specializer emitted.
    """

    __slots__ = ("key", "env", "module", "decisions")

    def __init__(self, key, env, module, decisions):
        self.key = key
        self.env = env
        self.module = module
        self.decisions = decisions


def fold_record(key, template=None):
    """Fold the template for ``key``; returns a :class:`FoldRecord`.

    Pure (no compilation, no caching).  ``template`` optionally supplies
    the module AST to fold **in place** — the translation validator
    passes a fresh copy of the template as parsed from the file under
    analysis, so line numbers in the record refer to real source lines;
    by default a deep copy of this module's own template is folded.
    """
    env = _flag_env(key)
    module = template if template is not None else copy.deepcopy(
        _template_module()
    )
    spec = _Specializer(env)
    spec.visit(module)
    ast.fix_missing_locations(module)
    return FoldRecord(key, env, module, tuple(spec.decisions))


def render_variant(key):
    """Fold the template for ``key``; returns a one-function module AST.

    Pure (no compilation, no caching) — this is the surface the REP009
    lint rule and the tests use to inspect what a variant contains.
    The fold itself (with its decision trail) is :func:`fold_record`.
    """
    return fold_record(key).module


def compiled_variant(key):
    """The compiled factory for ``key`` (process-wide cache)."""
    factory = _VARIANTS.get(key)
    if factory is None:
        module = render_variant(key)
        code = compile(
            module, f"<repro.engine.variant {variant_id(key)}>", "exec"
        )
        namespace = {"_StopSearch": _StopSearch}
        namespace.update(_flag_env(key))
        exec(code, namespace)
        factory = namespace["_search_template"]
        _VARIANTS[key] = factory
    return factory


def _release(search) -> None:
    """Cut the recursive closure's reference to itself.

    ``search`` calls itself through a closure cell, a reference cycle
    that keeps everything the closure holds (the backend's hot-path
    tables, the sink and, through the default sink, every emitted
    clique) alive until a full garbage collection, which an
    allocation-light bitset run may not trigger for several runs.
    Emptying that cell once the run is over lets reference counting
    free the run's state as soon as the caller drops the result.
    """
    names = search.__code__.co_freevars
    if "search" in names:
        search.__closure__[names.index("search")].cell_contents = None


def build_search(ops, config, k, stats, sink, limit, san=None, obs=None):
    """Select the variant for this run and instantiate its closures.

    Same contract as the template factory: returns ``(search, flush)``
    with ``search(r, q, c, x, depth)`` as documented on
    :func:`_search_template`.
    """
    factory = compiled_variant(variant_key(ops, config, san, obs))
    return factory(ops, config, k, stats, sink, limit, san, obs)


class SearchEngine:
    """One enumeration run: drives a ``StateOps`` backend to completion.

    The engine owns the run lifecycle — phase timing, hook wiring, the
    outer seed loop, recursion-limit management, and the final counter
    flush.  It is constructed fresh per run by the enumerator facades
    (:class:`~repro.core.pmuc.PivotEnumerator`,
    :class:`~repro.kernel.enumerate.KernelEnumerator`), which own
    argument validation and backend selection.
    """

    __slots__ = ("ops", "k", "eta", "config", "result", "sink",
                 "limit", "san", "obs", "variant")

    def __init__(self, ops, k, eta, config, result, sink, limit=None):
        validate_state_ops(ops)
        self.ops = ops
        self.k = k
        self.eta = eta
        self.config = config
        self.result = result
        self.sink = sink
        self.limit = limit
        #: The run's sanitizer / observer (or None); populated by
        #: :meth:`run`, left in place so facades can surface them.
        self.san = None
        self.obs = None
        #: The :func:`variant_id` of the recursion variant the run
        #: selected; populated by :meth:`run`.
        self.variant = None

    def run(self, seeds=None, *, reduced_graph=None, order=None):
        """Execute the enumeration; returns the backend's result.

        Same contract as ``PivotEnumerator.run``: optional ``seeds``
        restrict the outer loop, and ``reduced_graph``/``order`` skip
        the in-run reduction/ordering (the partitioned and parallel
        drivers prepare them once for all workers).
        """
        ops = self.ops
        config = self.config
        # Imported lazily: repro.sanitize / repro.obs pull in
        # repro.core.config (and the sanitizer repro.core.pivot), so a
        # module-level import here would close an import cycle through
        # the repro.core package __init__.
        from repro.obs.observer import build_observer
        from repro.sanitize.sanitizer import build_sanitizer

        san = self.san = build_sanitizer(
            ops.graph, self.k, self.eta, config, ops.name
        )
        obs = self.obs = build_observer(config, ops.name)
        # Only a per-node observer is bound into the recursion; a
        # lifecycle-only one (``light``) still gets every gauge, root,
        # phase and finish hook below, so the run keeps the production
        # variant.
        node_obs = obs if obs is not None and obs.recursion_hooks else None
        if obs is not None:
            obs.on_gauge("vertices_input", ops.graph.num_vertices)
        start = perf_counter()
        ops.prepare_reduction(reduced_graph)
        reduction_s = perf_counter() - start
        start = perf_counter()
        ops.prepare_ordering(order)
        ordering_s = perf_counter() - start
        ops.bind_observer(node_obs)
        if obs is not None:
            obs.on_gauge("vertices_search", ops.search_size())
        adapter = None
        if san is not None:
            vertices, color, edges = ops.context()
            san.on_reduced(vertices)
            san.on_context(color, edges)
            adapter = ops.bind_sanitizer(san)
        self.variant = variant_id(
            variant_key(ops, config, adapter, node_obs)
        )
        if obs is not None:
            obs.variant = self.variant
        # The recursion is at most one level per clique member; make
        # sure graphs with very large cliques cannot hit the default
        # interpreter limit mid-search.  The limit is restored via
        # try/finally so that even a failing specializer cannot leak
        # the raised value.
        previous_limit = sys.getrecursionlimit()
        needed = ops.search_size() + 100
        raised = needed > previous_limit
        # Everything that can raise (attribute lookups, perf_counter)
        # stays *above* the mutation: the ``try`` must begin on the
        # very next statement or an exception in between leaks the
        # raised limit (REP012 checks this structurally).
        complete = seeds is None
        unit = ops.unit
        roots = ops.roots(seeds)
        if obs is not None:
            # Materialized so the progress estimator knows the total
            # outstanding frontier up front (the kernel hands out a
            # lazy range); hooks-off runs keep the backend's iterable.
            roots = list(roots)
        root_index = 0
        start = perf_counter()
        if raised:
            sys.setrecursionlimit(needed)
        try:
            # Module-global lookup on purpose: tests swap in a
            # tampered recursion by monkeypatching
            # ``repro.engine.driver.build_search`` to exercise the
            # sanitizer end to end.
            search, flush = build_search(
                ops, config, self.k, self.result.stats, self.sink,
                self.limit, adapter, node_obs
            )
            try:
                for v in roots:
                    c, x = ops.root_state(v)
                    if obs is not None:
                        obs.on_root(root_index, len(roots), c)
                        root_index += 1
                    search([v], unit, c, x, 1)
            except _StopSearch:
                complete = False
            finally:
                flush()
                _release(search)
        finally:
            if raised:
                sys.setrecursionlimit(previous_limit)
        recursion_s = perf_counter() - start
        start = perf_counter()
        if san is not None:
            san.on_finish(complete)
        sanitize_s = perf_counter() - start
        # Phase seconds are part of every result, observed or not; the
        # observer's timers receive exactly these values.
        self.result.phases = {
            "reduction": reduction_s,
            "ordering": ordering_s,
            "recursion": recursion_s,
            "sanitize": sanitize_s,
        }
        if obs is not None:
            obs.on_phase("reduction", reduction_s)
            obs.on_phase("ordering", ordering_s)
            obs.on_phase("recursion", recursion_s)
            obs.on_phase("sanitize", sanitize_s)
            obs.on_finish(self.result.stats)
        return self.result
