"""An independent oracle for the mapping-torus spectra: the deck-invariant
spectrum of the finite flat cover.

A mapping torus with holonomy phi, lift U, base length L and base shift s_b
is covered K times by the flat torus T^m x S^1(K L) with periodic base,
for the least K with phi^K = I and (exp(2 pi i s_b) U)^K = I.  On the
cover the Dirac operator is block diagonal over the modes (zeta, v), zeta in
Z^m + delta and v in Z, with the block gamma(p, beta) at p = 2 pi B^-T zeta
/ eps and beta = 2 pi v / (K L).  The deck generator g sends the
coefficient at (zeta, v) to exp(2 pi i (s_b - v / K)) U times it at
(phi^T zeta, v).  It keeps |p| and v, so on the ball |p|^2 + beta^2 < R^2
the mapping torus's spectrum below R is that of D on the g-invariant
vectors.  The oracle reads only the lift matrix, the gammas and the
lattice: no orbit, lift basis, twist cluster, coupling check, certificate
or truncation box of the plan.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diraclab.clifford import lift_rotation
from diraclab.mapping import _plan
from test_assembly import _drawn_module, _mapping_models, _rank_one_or_three_models

# the largest order of a deck generator the drawn models take
_MAX_ORDER = 48


def _lift(model, cm):
    """The model's lift, computed from its physical fiber rotation."""
    b = model.fiber.lattice_basis
    m = model.fiber.n
    rot = np.eye(m + 1)
    rot[:m, :m] = (b @ model.holonomy @ np.linalg.inv(b)).T
    return lift_rotation(cm, rot)


def _deck_order(model, lift):
    """The least K with phi^K = I and (exp(2 pi i s_b) U)^K = I."""
    phi = np.asarray(model.holonomy)
    twist = np.exp(2j * np.pi * model.base_shift) * lift
    power_phi, power_u = np.eye(len(phi), dtype=phi.dtype), np.eye(len(lift), dtype=complex)
    for k in range(1, _MAX_ORDER + 1):
        power_phi, power_u = power_phi @ phi, power_u @ twist
        if np.array_equal(power_phi, np.eye(len(phi))) and np.allclose(power_u, np.eye(len(lift)), atol=1e-12):
            return k
    raise AssertionError("the deck generator has no small finite order")


def _fiber_modes(model, eps, radius):
    """The integer fiber modes k with |p| < radius at zeta = k + delta, and
    their images under zeta -> phi^T zeta (so that phi^T keeps the set)."""
    fiber = model.fiber
    b, delta = fiber.lattice_basis, fiber.spin_shift
    # |zeta_i| = |b_i . y| <= |b_i| |y| with |p| = 2 pi |y| / eps
    reach = int(np.ceil(radius * eps * np.max(np.linalg.norm(b, axis=0)) / (2 * np.pi))) + 1
    grid = np.stack(np.meshgrid(*[np.arange(-reach, reach + 1)] * fiber.n, indexing="ij"), -1)
    ks = grid.reshape(-1, fiber.n)
    p = 2 * np.pi * np.linalg.solve(b.T, (ks + delta).T).T / eps
    modes = {tuple(k) for k in ks[np.sum(p * p, axis=1) < radius * radius].tolist()}
    phi_t = np.asarray(model.holonomy).T
    pending = list(modes)
    while pending:
        zeta = phi_t @ (np.array(pending.pop()) + delta) - delta
        image = tuple(int(x) for x in np.rint(zeta))
        if image not in modes:
            modes.add(image)
            pending.append(image)
    return np.array(sorted(modes), dtype=np.int64).reshape(-1, fiber.n)


def _oracle_values(model, cm, eps, radius):
    """The deck-invariant spectrum of the K-fold cover's Dirac operator on
    the ball |p|^2 + beta^2 < radius^2, one base mode v at a time (g keeps
    v): the range of P = (1/K) sum_j g^j, g applied as a permutation of the
    fiber modes with a phase and U, and eigvalsh of D on that range."""
    lift = _lift(model, cm)
    order = _deck_order(model, lift)
    fiber, dim_v = model.fiber, cm.dim_v
    ks = _fiber_modes(model, eps, radius)
    index = {k: i for i, k in enumerate(map(tuple, ks.tolist()))}
    images = np.rint((ks + fiber.spin_shift) @ np.asarray(model.holonomy) - fiber.spin_shift)
    perm = np.array([index[k] for k in map(tuple, images.astype(np.int64).tolist())], dtype=np.intp)
    p = 2 * np.pi * np.linalg.solve(fiber.lattice_basis.T, (ks + fiber.spin_shift).T).T / eps
    kl = order * model.base_length
    reach = int(np.ceil(radius * kl / (2 * np.pi)))
    values = []
    for v in range(-reach, reach + 1):
        beta = 2 * np.pi * v / kl
        blocks = cm.gamma(np.column_stack([p, np.full(len(p), beta)]))
        phase = np.exp(2j * np.pi * (model.base_shift - v / order))
        n = len(ks) * dim_v
        total = np.eye(n, dtype=complex)
        moved = total.copy()
        for _ in range(order - 1):
            step = np.empty_like(moved)
            step.reshape(len(ks), dim_v, n)[perm] = phase * (lift @ moved.reshape(len(ks), dim_v, n))
            moved = step
            total += moved
        w, q = np.linalg.eigh(total / order)
        q = q[:, w > 0.5]
        if q.shape[1]:
            dense = np.zeros((n, n), dtype=complex)
            for i, block in enumerate(blocks):
                dense[i * dim_v : (i + 1) * dim_v, i * dim_v : (i + 1) * dim_v] = block
            values.append(np.linalg.eigvalsh(q.conj().T @ dense @ q))
    values = np.sort(np.concatenate(values)) if values else np.zeros(0)
    return values[np.abs(values) < radius]


def _sure_radius(model, eps, truncation):
    """A radius of a ball of (p, beta) that the plan's box surely holds: it
    keeps every fiber mode with |k_i + delta_i| <= T, which holds where |p|
    <= 2 pi T / (eps max |b_i|), and every base momentum of an orbit of
    size d with |u| <= d T, which covers |beta| <= 2 pi (T - 1) / L."""
    b = model.fiber.lattice_basis
    fiber = 2 * np.pi * truncation / (eps * np.max(np.linalg.norm(b, axis=0)))
    return min(fiber, 2 * np.pi * (truncation - 1) / model.base_length)


@settings(max_examples=40)
@given(
    model=st.one_of(_mapping_models(), _rank_one_or_three_models()),
    exterior=st.booleans(),
    eps=st.floats(0.5, 1.5),
)
def test_symbol_spectra_match_the_deck_invariant_spectrum_of_the_cover(model, exterior, eps):
    # the plan is built, so the build-time coupling check refuses no drawn
    # model; below the radius its box surely holds, its certified spectrum
    # at eps is the cover's deck-invariant one, in count and value
    cm, truncation = _drawn_module(model, exterior, 4)
    radius = min(_sure_radius(model, eps, truncation), 6.0 if model.fiber.n == 3 else 9.0)
    plan = _plan(model, cm, truncation)
    got = plan.symbol_spectra([eps]).at(0).values
    want = _oracle_values(model, cm, eps, radius)
    # keep clear of values that rounding could put on either side of the radius
    edge = np.abs(np.abs(np.concatenate([got, want])) - radius) < 1e-9 * radius
    cut = radius * (1.0 - 1e-6) if edge.any() else radius
    got, want = got[np.abs(got) < cut], want[np.abs(want) < cut]
    assert len(got) == len(want)
    assert np.all(np.abs(got - want) <= 1e-11 * max(1.0, radius))
    assume(len(want))
