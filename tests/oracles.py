"""Independent reference implementations used to cross-check the library.

Everything here is written straight from the definitions, with different
data structures and control flow than the production code: dense product
enumeration instead of pattern grouping, raw dict tapes instead of cell tuples,
a set and a sort of nested key tuples instead of integer-coded keys, and numpy
least squares instead of Gram-Schmidt.  The test suite asserts
agreement and freezes the resulting counts as regression values.
A classical table runs as a chain of ``make_imager`` images
(``classical_chain``), the reference its lift's evolution is checked against.
"""

import itertools

import numpy as np

from qtmlab import BLANK, Configuration, basis_image, trajectory
from qtmlab.wellformed import _pattern_inner

MOVE = {"L": -1, "N": 0, "R": 1}
CELLS = range(-3, 4)
HEADS = range(-2, 3)


def config_key(cfg):
    return (cfg.halted, cfg.state, cfg.head, cfg.cells)


def pair_key(pair):
    return (config_key(pair[0]), config_key(pair[1]))


def dense_candidate_keys(spec):
    """Every distinct unordered window pair, by brute product enumeration.

    Members share all cells outside their two head positions, carry heads
    at most two cells apart, and are deduplicated by translation: the lower
    head goes to cell 0.  Each raw tape is made canonical once, and equal
    keys are one tuple, so pairs that share a member share its object.

    Returns a dict whose keys are the pairs ``(k1, k2)``, ``k1 < k2``, in the
    order first generated: a sweep over a set, in hash order, touches memory
    at random and takes about twice as long.
    """
    symbols = tuple(spec.alphabet)
    made = {}

    def keys_at(head, tapes):
        keyed = ((q == spec.halt, q, head, cells) for cells in tapes for q in spec.states)
        return [made.setdefault(k, k) for k in keyed]

    keys = {}
    for x1 in HEADS:
        for x2 in HEADS:
            if x2 < x1 or x2 - x1 > 2:
                continue
            own = (x1,) if x1 == x2 else (x1, x2)
            shared = [p for p in CELLS if p not in own]
            for shared_fill in itertools.product(symbols, repeat=len(shared)):
                base = dict(zip(shared, shared_fill))
                tapes = []
                for fill in itertools.product(symbols, repeat=len(own)):
                    tape = dict(base)
                    tape.update(zip(own, fill))
                    tapes.append(tuple(sorted((p - x1, s) for p, s in tape.items() if s != BLANK)))
                for k1, k2 in itertools.product(keys_at(0, tapes), keys_at(x2 - x1, tapes)):
                    if k1 != k2:
                        keys[(k1, k2) if k1 < k2 else (k2, k1)] = None
    return keys


def _window_sides(alphabet, lo, hi):
    cells = range(lo, hi + 1)
    return [
        tuple((p, s) for p, s in zip(cells, symbols) if s != BLANK)
        for symbols in itertools.product(alphabet, repeat=len(cells))
    ]


def _window_cell(pos, symbol):
    return () if symbol in (BLANK, None) else ((pos, symbol),)


def pattern_key_pairs(spec, pattern):
    """Canonical key pairs of one pattern ``(d, (q1, s1), a, (q2, s2), b)``
    as a set: every translation x1 of the window fills all of its shared
    cells, and the set drops the tapes two translations both produce."""
    d, (q1, s1), a, (q2, s2), b = pattern
    h1, h2 = q1 == spec.halt, q2 == spec.halt
    m1, ma = _window_cell(0, s1), _window_cell(d, a)
    mb, m2 = _window_cell(0, b), _window_cell(d, s2)
    pairs = set()
    for x1 in range(-2, 3 - d):
        for left in _window_sides(spec.alphabet, -3 - x1, -1):
            for mid in _window_sides(spec.alphabet, 1, d - 1):
                for right in _window_sides(spec.alphabet, d + 1, 3 - x1):
                    c1 = (h1, q1, 0, left + m1 + mid + ma + right)
                    c2 = (h2, q2, d, left + mb + mid + m2 + right)
                    pairs.add((c1, c2) if c1 < c2 else (c2, c1))
    return pairs


def failing_patterns(spec, keys, tol=1e-9):
    """Every pattern over ``keys`` whose images, by the library's
    ``_pattern_inner``, have inner product of modulus above ``tol``, in the
    checker's sweep order."""
    pairs = [(0, k1, k2) for i, k1 in enumerate(keys) for k2 in keys[i + 1 :]]
    pairs += [(d, k1, k2) for d in (1, 2) for k1 in keys for k2 in keys]
    return [
        (d, k1, a, k2, b)
        for d, k1, k2 in pairs
        for (a, b), ip in _pattern_inner(spec.rules[k1], spec.rules[k2], d).items()
        if abs(ip) > tol
    ]


def reference_failing_windows(spec, keys, tol=1e-9):
    """The canonical window pairs of the failing patterns over ``keys``, by a
    set of key pairs and one sort of the nested tuples."""
    pairs = set()
    for pattern in failing_patterns(spec, keys, tol):
        pairs |= pattern_key_pairs(spec, pattern)
    make = Configuration._make
    return [(make(c1), make(c2)) for c1, c2 in sorted(pairs)]


def make_imager(spec):
    """One-step image of a basis configuration, computed from raw dicts.

    Returns a closure mapping a Configuration, or its key tuple, to
    {config_key: amplitude}, or None when the machine has no rule for the
    configuration.  Images are cached because the candidate sweep revisits
    configurations often.
    """
    cache = {}
    rules = spec.rules
    halt = spec.halt

    def image(cfg):
        got = cache.get(cfg, False)
        if got is not False:
            return got
        _, state, head, cells = cfg
        tape = dict(cells)
        symbol = tape.get(head, BLANK)
        targets = rules.get((state, symbol))
        if targets is None:
            cache[cfg] = None
            return None
        out = {}
        for t in targets:
            written = dict(tape)
            if t.write == BLANK:
                written.pop(head, None)
            else:
                written[head] = t.write
            key = (
                t.state == halt,
                t.state,
                head + MOVE[t.move],
                tuple(sorted(written.items())),
            )
            # the first target at a key as parsed: 0j + (1 - 0i) would be 1 + 0i
            out[key] = out[key] + t.amplitude if key in out else t.amplitude
        cache[cfg] = out
        return out

    return image


def classical_chain(spec, text, steps):
    """Configurations S_0 .. S_steps of a classical table run from head 0 on
    ``text``, each the one amplitude-1 key of the last one's image, drifting
    right after halting."""
    image = make_imager(spec)
    cells = tuple((i, s) for i, s in enumerate(text) if s != BLANK)
    chain = [(spec.initial == spec.halt, spec.initial, 0, cells)]
    for _ in range(steps):
        ((key, amplitude),) = image(chain[-1]).items()
        assert amplitude == 1
        chain.append(key)
    return [Configuration._make(key) for key in chain]


def classical_halt(spec, text, budget):
    """The first halted configuration of ``classical_chain`` within
    ``budget`` steps and its step, else the last configuration and
    ``budget``."""
    chain = classical_chain(spec, text, budget)
    steps = next((t for t, cfg in enumerate(chain) if cfg.halted), budget)
    return chain[steps], steps


def brute_force_witnesses(spec, pairs, tol=1e-9):
    """All candidate pairs whose one-step images fail to be orthogonal, as
    {pair: inner product}; ``pairs`` are key-tuple pairs, as
    ``dense_candidate_keys`` gives them."""
    image = make_imager(spec)
    witnesses = {}
    for pair in pairs:
        u = image(pair[0])
        v = image(pair[1])
        if u is None or v is None:
            continue
        if len(v) < len(u):
            ip = sum(a.conjugate() * u[k] for k, a in v.items() if k in u)
            ip = ip.conjugate()
        else:
            ip = sum(a.conjugate() * v[k] for k, a in u.items() if k in v)
        if abs(ip) > tol:
            witnesses[pair] = ip
    return witnesses


def projection_subspace(spec, inp, steps, tol=1e-9):
    """Least-squares version of the halting subspace analysis.

    Collects the same halted and running window bases as the library,
    but answers the span question with numpy lstsq on the image matrix
    instead of Gram-Schmidt.  Returns a tuple mirroring SubspaceReport:
    (halted count, newly halting configs, gram deviation, max overlap,
    max residual, verdict).
    """
    states = [inp, *(s for _, s in trajectory(spec, inp, 0, steps))]
    halted, running = set(), set()
    for t, state in enumerate(states):
        for cfg in state.configurations():
            if cfg.halted:
                halted.add(cfg)
            elif t < steps:
                running.add(cfg)
    halted = sorted(halted)
    running = sorted(running)

    images_h = [basis_image(spec, c) for c in halted]
    images_w = [basis_image(spec, c) for c in running]
    basis = sorted({c for img in images_h + images_w for c in img.configurations()})
    index = {c: i for i, c in enumerate(basis)}
    matrix = np.zeros((len(basis), len(halted)), dtype=complex)
    for j, img in enumerate(images_h):
        for cfg, amp in img.items():
            matrix[index[cfg], j] = amp

    gram_dev = 0.0
    if halted:
        gram = matrix.conj().T @ matrix
        gram_dev = float(np.max(np.abs(gram - np.eye(len(halted)))))

    newly = []
    max_overlap = 0.0
    max_residual = 0.0
    for cfg, img in zip(running, images_w):
        v = np.zeros(len(basis), dtype=complex)
        for c2, amp in img.items():
            if c2.halted:
                v[index[c2]] = amp
        mass = float(np.vdot(v, v).real)
        if mass <= tol * tol:
            continue
        newly.append(cfg)
        if halted:
            max_overlap = max(max_overlap, float(np.max(np.abs(matrix.conj().T @ v))))
            x, *_ = np.linalg.lstsq(matrix, v, rcond=None)
            residual = float(np.linalg.norm(v - matrix @ x))
        else:
            residual = float(np.sqrt(mass))
        max_residual = max(max_residual, residual)

    if not halted and not newly:
        verdict = "no_halting_observed"
    elif max_residual > tol:
        verdict = "gap_found"
    else:
        verdict = "no_gap_found"
    return len(halted), tuple(newly), gram_dev, max_overlap, max_residual, verdict
