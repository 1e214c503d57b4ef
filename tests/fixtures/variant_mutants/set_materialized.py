"""Seeded miscompile: the bitset hot path materializes its bitset.

Template *and* variant both snapshot the candidate set through
``set(c_bits)`` — structurally the fold is perfect, so REP013's
skeleton diff is clean.  REP011 catches it: it analyzes the folded
bitset variants of the template and the hand-folded
``_variant_bitset`` alike, and reports the materialization on both
lines with a trace that names the bit-domain source.
"""

HOOKS = False
BITSET = False
KPIVOT = False

VARIANT_ENVS = {
    "_variant_bitset": {"HOOKS": False, "BITSET": True, "KPIVOT": False},
}


def _search_template(ops, k, sink, san=None, obs=None):
    if BITSET:
        fast = ops.fast_ops()
        bit_at = fast.bit_at
        nbr_bits = fast.nbr_bits
        label_of = fast.label_of
    else:
        hot = ops.search_ops()
        expand = hot.expand
        retract = hot.retract
    sink_call = sink

    def search(r, c, depth):
        if BITSET:
            if not c:
                if len(r) >= k:
                    sink_call(frozenset(map(label_of, r)))
                return
            c_bits = c
            probe = set(c_bits)
            live = c_bits
            while live:
                w = live.bit_length() - 1
                live ^= bit_at[w]
                search(r + [w], c_bits & nbr_bits[w], depth + 1)
        else:
            if not c:
                if len(r) >= k:
                    sink_call(frozenset(r))
                return
            for v in list(c):
                child = expand(c, v)
                search(r + [v], child, depth + 1)
                retract(c, v)

    return search


def _variant_bitset(ops, k, sink, san=None, obs=None):
    fast = ops.fast_ops()
    bit_at = fast.bit_at
    nbr_bits = fast.nbr_bits
    label_of = fast.label_of
    sink_call = sink

    def search(r, c, depth):
        if not c:
            if len(r) >= k:
                sink_call(frozenset(map(label_of, r)))
            return
        c_bits = c
        probe = set(c_bits)
        live = c_bits
        while live:
            w = live.bit_length() - 1
            live ^= bit_at[w]
            search(r + [w], c_bits & nbr_bits[w], depth + 1)

    return search
