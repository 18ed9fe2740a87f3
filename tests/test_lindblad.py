import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from choi_moments import lindblad
from choi_moments.lindblad import (
    LOWERING,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    LindbladGenerator,
    from_hermitian_basis,
    named_operator,
    rates_at,
    require_hermitian,
)
from choi_moments.rates import ConstantRate, ExpCosRate, rate_eval
from helpers import (
    _action,
    apply_generator,
    dephasing_generator,
    hermitian_basis_matrix,
    isotropic_pauli_generator,
    random_generator,
    random_hermitian,
    random_psd_unit_trace,
    reference_superoperator,
)


def amplitude_damping_generator(rate=1.0):
    return LindbladGenerator(2, np.zeros((2, 2)), ((LOWERING, ConstantRate(rate)),))


def vec(m):
    return np.asarray(m).reshape(-1)


def superoperator_of_choi(choi, d):
    """The row-major superoperator S[(a, b), (i, j)] = d C[(i, a), (j, b)] of
    Choi states C (..., d^2, d^2), as `propagate_map` reads it."""
    lead = choi.shape[:-2]
    realigned = choi.reshape(*lead, d, d, d, d).transpose(*range(len(lead)), -3, -1, -4, -2)
    return d * realigned.reshape(*lead, d * d, d * d)


def tables_superoperator(gen, t):
    """Lhat(t) read off the package's tables: the transfer blocks weighted by
    [1, gamma_1(t), ...], taken out of the Hermitian basis as a Choi image
    and realigned."""
    coef = np.concatenate(([1.0], rates_at(gen, t)))
    d = gen.dim
    return superoperator_of_choi(
        from_hermitian_basis(np.tensordot(coef, gen.transfer_blocks, 1), d), d)


def images_of_i_over_d(gen, blocks):
    """The images of I/d under the given transfer blocks, each taken out of
    the Hermitian basis as a Choi state and realigned, (n, d, d)."""
    d = gen.dim
    s = superoperator_of_choi(from_hermitian_basis(blocks, d), d)
    return (s @ vec(np.eye(d) / d)).reshape(-1, d, d)


def is_unital(gen, t):
    """L_t(I) = 0, read off the package's tables. Every generator below
    whose operators are Pauli matrices gives exactly zero."""
    coef = np.concatenate(([1.0], rates_at(gen, t)))
    return not images_of_i_over_d(gen, np.tensordot(coef, gen.transfer_blocks, 1)).any()


def dissipator_defects(gen):
    """Largest entry of |D_k(I/d)| for each dissipator alone: zero iff L_k is
    normal, since D_k(I) = L_k L_k^dag - L_k^dag L_k."""
    return np.max(np.abs(images_of_i_over_d(gen, gen.transfer_blocks[1:])), axis=(1, 2))


class DuckRate:
    """exp(-kt) cos(kt) with a k that can be changed: not a RateModel."""

    k = 1.0

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        return np.exp(-self.k * t) * np.cos(self.k * t)


class TestConstruction:
    def test_named_operators(self):
        assert np.array_equal(named_operator("sigma_x", 2), SIGMA_X)
        assert np.array_equal(named_operator("lowering", 2), LOWERING)
        with pytest.raises(ValueError, match="unknown operator"):
            named_operator("sigma_w", 2)
        with pytest.raises(ValueError, match="dimension"):
            named_operator("sigma_z", 3)

    @pytest.mark.parametrize("name", sorted(lindblad.NAMED_OPERATORS))
    def test_named_operators_are_read_only_and_looked_up_as_copies(self, name):
        # One caller's in-place edit used to change every later generator.
        shared = lindblad.NAMED_OPERATORS[name]
        with pytest.raises(ValueError, match="read-only"):
            shared[0, 0] = 5
        op = named_operator(name, 2)
        op[0, 0] = 5
        assert op[0, 0] == 5 and shared[0, 0] != 5

    def test_rejects_non_hermitian_hamiltonian(self):
        h = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="not Hermitian"):
            LindbladGenerator(2, h, ())

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError, match="non-finite"):
            LindbladGenerator(2, np.diag([np.nan, 0.0]), ())
        with pytest.raises(ValueError, match="jump operator has non-finite entries"):
            LindbladGenerator(2, np.zeros((2, 2)),
                              ((np.array([[0.0, np.inf], [0.0, 0.0]]), ConstantRate(1.0)),))

    def test_blocks_follow_the_operators_and_freeze_no_caller_array(self):
        gen = amplitude_damping_generator()
        blocks = gen.transfer_blocks
        assert blocks.shape == (2, 4, 4)
        # LOWERING itself is read-only; a caller's own array stays writeable.
        mine = named_operator("lowering", 2)
        assert LindbladGenerator(2, SIGMA_X, ((mine, ConstantRate(1.0)),)).transfer_blocks.size
        assert mine.flags.writeable
        rebuilt = LindbladGenerator(2, SIGMA_X, gen.dissipators)
        assert np.array_equal(rebuilt.transfer_blocks[1], blocks[1])
        assert not np.array_equal(rebuilt.transfer_blocks[0], blocks[0])

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_operators_are_one_read_only_stack_the_dissipators_view(self, k):
        ops = [np.arange(4.0).reshape(2, 2) + j for j in range(k)]
        gen = LindbladGenerator(2, SIGMA_X, tuple((op, ConstantRate(1.0)) for op in ops))
        assert gen.operators.shape == (k, 2, 2) and gen.operators.dtype == complex
        assert np.array_equal(gen.operators, np.array(ops).reshape(k, 2, 2))
        assert not gen.operators.flags.writeable
        for (op, _), row in zip(gen.dissipators, gen.operators):
            assert np.shares_memory(op, gen.operators) and np.array_equal(op, row)
            assert not op.flags.writeable
        assert all(op.flags.writeable for op in ops)
        # Every table reads the one stack, so K = 0 gives empty tables.
        assert gen.small_time_tables.traces3.shape == (k * k, k)
        assert len(gen.small_time_tables.off_bell) == k
        assert gen.transfer_blocks.shape == (k + 1, 4, 4)

    @pytest.mark.parametrize("dissipators, index", [
        (((SIGMA_Z, 1.0),), 0),  # a bare number is no rate model
        (((SIGMA_Z,),), 0),
        (((SIGMA_Z, ConstantRate(1.0), ConstantRate(1.0)),), 0),
        (((SIGMA_Z, ConstantRate(1.0)), SIGMA_X), 1),
        (((SIGMA_Z, ConstantRate(1.0)), 3.0), 1),
        # An object with an evaluate method may change after a generator
        # holds it; only an immutable RateModel is a rate.
        (((SIGMA_Z, ConstantRate(1.0)), (SIGMA_X, DuckRate())), 1),
    ])
    def test_refuses_a_malformed_dissipator_naming_its_index(self, dissipators, index):
        with pytest.raises(ValueError, match=rf"^dissipators\[{index}\] is not an "
                                             r"\(operator, rate model\) pair whose rate "
                                             r"is a RateModel$"):
            LindbladGenerator(2, np.zeros((2, 2)), dissipators)

    def test_rejects_operator_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match dim"):
            LindbladGenerator(3, np.zeros((3, 3)), ((SIGMA_Z, ConstantRate(1.0)),))

    @pytest.mark.parametrize("shape", [(3, 3), (1, 1)])
    def test_rejects_a_hamiltonian_whose_shape_does_not_match_dim(self, shape):
        with pytest.raises(ValueError) as info:
            LindbladGenerator(2, np.zeros(shape), ((SIGMA_Z, ConstantRate(1.0)),))
        assert str(info.value) == f"Hamiltonian shape {shape} does not match dim 2"

    @pytest.mark.parametrize("dim, message", [
        (1, "dim must be >= 2, got 1"),
        (0, "dim must be >= 2, got 0"),
        (-1, "dim must be >= 2, got -1"),
        (2.0, "dim must be an integer, got 2.0"),
        (True, "dim must be an integer, got True"),
    ])
    def test_refuses_a_dimension_that_is_not_an_integer_of_at_least_2(self, dim, message):
        # The check comes before the Hamiltonian is read, so any shape will do.
        with pytest.raises(ValueError) as info:
            LindbladGenerator(dim, np.zeros((1, 1)), ())
        assert str(info.value) == message

    def test_fields_are_read_only_and_taken_by_keyword(self):
        gen = LindbladGenerator(dim=2, hamiltonian=SIGMA_X,
                                dissipators=[(LOWERING, ConstantRate(1.0))])
        assert gen.dim == 2 and isinstance(gen.dissipators, tuple)
        assert not gen.hamiltonian.flags.writeable
        for name in ("dim", "hamiltonian", "dissipators", "extra"):
            with pytest.raises(AttributeError, match="cannot assign"):
                setattr(gen, name, None)
        for name in ("dim", "hamiltonian", "dissipators"):
            with pytest.raises(AttributeError, match="cannot delete"):
                delattr(gen, name)
        assert repr(gen).startswith("LindbladGenerator(dim=2, hamiltonian=array([[0.+0.j, 1.+0.j]")
        assert repr(gen).endswith("ConstantRate(value=1.0)),))")
        copy = pickle.loads(pickle.dumps(gen))
        assert np.array_equal(copy.transfer_blocks, gen.transfer_blocks)

    def test_tables_are_built_on_first_use_kept_and_frozen(self):
        # Construction only checks: a generator built to validate a config
        # costs no product.
        gen = amplitude_damping_generator()
        names = ("transfer_blocks", "small_time_tables")
        assert not set(names) & set(vars(gen))
        for name in names:
            table = getattr(gen, name)
            assert getattr(gen, name) is table
            for array in (table,) if name == "transfer_blocks" else table:
                with pytest.raises(ValueError, match="read-only"):
                    array.flat[0] = 1.0
            with pytest.raises(AttributeError):
                setattr(gen, name, table)
            with pytest.raises(AttributeError):
                delattr(gen, name)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_transfer_blocks_give_each_dissipators_image_of_i_over_d(self, d):
        gen = random_generator(np.random.default_rng(30 + d), d, n_ops=3)
        images = images_of_i_over_d(gen, gen.transfer_blocks[1:])
        assert images.shape == (3, d, d)
        for (op, _), image in zip(gen.dissipators, images):
            alone = LindbladGenerator(d, np.zeros((d, d)), ((op, ConstantRate(1.0)),))
            want = reference_superoperator(alone, 0.0) @ (np.eye(d).ravel() / d)
            assert np.max(np.abs(vec(image) - want)) <= 1e-15 * np.max(np.abs(want))
        assert LindbladGenerator(d, np.eye(d), ()).transfer_blocks.shape == (1, d * d, d * d)


class TestApplyGenerator:
    def test_maximally_mixed_is_fixed_point_of_dephasing(self):
        gen = dephasing_generator(ConstantRate(1.0))
        out = apply_generator(gen, np.eye(2) / 2, 0.0)
        assert np.max(np.abs(out)) < 1e-14

    def test_dephasing_kills_coherences(self):
        gen = dephasing_generator(ConstantRate(1.0))
        plus = np.full((2, 2), 0.5)
        out = apply_generator(gen, plus, 0.0)
        assert np.allclose(out, [[0.0, -1.0], [-1.0, 0.0]], atol=1e-14)

    def test_isotropic_pauli_on_ground_state(self):
        gamma = 0.8
        gen = isotropic_pauli_generator(ConstantRate(gamma))
        rho = np.diag([1.0, 0.0]).astype(complex)
        expected = 2.0 * gamma * np.diag([-1.0, 1.0])
        assert np.allclose(apply_generator(gen, rho, 0.0), expected, atol=1e-14)

    def test_rejects_dimension_mismatch(self):
        gen = dephasing_generator(ConstantRate(1.0))
        with pytest.raises(ValueError, match="does not match"):
            apply_generator(gen, np.eye(3) / 3, 0.0)

    def test_output_traceless_and_hermitian(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            dim = int(rng.integers(2, 5))
            gen = random_generator(rng, dim, n_ops=int(rng.integers(1, 4)))
            rho = random_psd_unit_trace(rng, dim)
            out = apply_generator(gen, rho, 0.0)
            assert abs(np.trace(out)) < 1e-10
            assert np.max(np.abs(out - out.conj().T)) < 1e-10


class TestSuperoperator:
    """The generator read off its transfer blocks, against its action."""

    @pytest.mark.parametrize("shape", [(), (7,), (3, 5)])
    def test_rates_at_gives_one_row_per_dissipator(self, shape, monkeypatch):
        # One row per dissipator, the bits of its model's rate_eval; a shared
        # rate model is evaluated once and fills both of its rows.
        shared, other = ExpCosRate(k=1.5), ConstantRate(-0.25)
        gen = LindbladGenerator(2, np.zeros((2, 2)), (
            (SIGMA_X, shared), (SIGMA_Y, other), (SIGMA_Z, shared)))
        t = np.linspace(0.0, 2.0, int(np.prod(shape))).reshape(shape)
        evaluated = []

        def counted(model, times):
            evaluated.append(model)
            return rate_eval(model, times)

        monkeypatch.setattr(lindblad, "rate_eval", counted)
        rows = rates_at(gen, t)
        assert [id(m) for m in evaluated] == [id(shared), id(other)]
        assert rows.shape == (3,) + shape and rows.flags.c_contiguous
        want = np.stack([rate_eval(rate, t) for _, rate in gen.dissipators])
        assert rows.tobytes() == want.tobytes()
        empty = rates_at(LindbladGenerator(2, SIGMA_Z, ()), t)
        assert empty.shape == (0,) + shape

    def test_rates_at_refuses_a_nan_time(self):
        gen = LindbladGenerator(2, SIGMA_X, ((SIGMA_Z, ConstantRate(1.0)),))
        with pytest.raises(ValueError, match=r"defined for finite t >= 0, got t = nan$"):
            rates_at(gen, [0.0, np.nan])

    def test_dephasing_is_diagonal(self):
        gen = dephasing_generator(ConstantRate(1.0))
        lhat = tables_superoperator(gen, 0.0)
        assert np.allclose(lhat, np.diag([0.0, -2.0, -2.0, 0.0]), atol=1e-14)

    def test_zero_generator(self):
        gen = LindbladGenerator(2, np.zeros((2, 2)), ())
        assert np.max(np.abs(tables_superoperator(gen, 0.0))) == 0.0

    def test_maximally_mixed_consistency_over_time(self):
        gen = dephasing_generator(ExpCosRate(k=1.0))
        rng = np.random.default_rng(22)
        eye = np.eye(2) / 2
        for t in rng.uniform(0.0, 6.0, size=10):
            lhs = tables_superoperator(gen, t) @ vec(eye)
            rhs = vec(apply_generator(gen, eye, t))
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_agrees_with_action_on_matrix_units(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            dim = int(rng.integers(2, 4))
            gen = random_generator(rng, dim, n_ops=int(rng.integers(1, 4)))
            t = float(rng.uniform(0.0, 3.0))
            lhat = tables_superoperator(gen, t)
            gammas = rates_at(gen, t)
            for i in range(dim):
                for j in range(dim):
                    unit = np.zeros((dim, dim), dtype=complex)
                    unit[i, j] = 1.0
                    expected = vec(_action(gen, unit, gammas))
                    assert np.max(np.abs(lhat[:, i * dim + j] - expected)) < 1e-10



class TestUnitalAndNormal:
    """Which generators fix I, read off the transfer blocks. The measures
    need no unitality; these check that the tables carry it where the
    operators do."""

    def test_dephasing_is_unital(self):
        assert is_unital(dephasing_generator(ConstantRate(1.0)), 0.0)

    def test_isotropic_pauli_is_unital(self):
        assert is_unital(isotropic_pauli_generator(ExpCosRate(k=1.0)), 2.0)

    def test_amplitude_damping_is_not_unital(self):
        assert not is_unital(amplitude_damping_generator(), 0.0)

    def test_pauli_operators_are_normal(self):
        assert np.all(dissipator_defects(dephasing_generator(ConstantRate(1.0))) == 0.0)
        assert np.all(dissipator_defects(isotropic_pauli_generator(ConstantRate(1.0))) == 0.0)

    def test_lowering_operator_is_not_normal(self):
        # D(I/2) = (L L^dag - L^dag L)/2 = diag(1, -1)/2 for L = |0><1|.
        gen = amplitude_damping_generator()
        assert dissipator_defects(gen) == pytest.approx([0.5])
        assert np.allclose(images_of_i_over_d(gen, gen.transfer_blocks[1:]),
                           [np.diag([0.5, -0.5])], rtol=0.0, atol=1e-15)


class TestHermitianBasis:
    @pytest.mark.parametrize("n_ops", [0, 3])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_transfer_blocks_match_the_dense_oracle(self, d, n_ops):
        # Block 0 is the Hamiltonian part, block k dissipator k at unit rate,
        # each against U^dag Lhat U with Lhat built by the test oracle.
        rng = np.random.default_rng(40 + d)
        gen = random_generator(rng, d, n_ops=n_ops)
        u = hermitian_basis_matrix(d)
        assert np.allclose(u.conj().T @ u, np.eye(d * d), rtol=0.0, atol=1e-15)
        zero = np.zeros((d, d))
        parts = [LindbladGenerator(d, gen.hamiltonian, ())] + [
            LindbladGenerator(d, zero, ((op, ConstantRate(1.0)),)) for op, _ in gen.dissipators]
        assert gen.transfer_blocks.shape == (n_ops + 1, d * d, d * d)
        for block, part in zip(gen.transfer_blocks, parts):
            want = u.conj().T @ reference_superoperator(part, 0.0) @ u
            scale = np.max(np.abs(want))
            # Real to rounding: the map preserves Hermiticity.
            assert np.max(np.abs(want.imag)) <= 1e-14 * scale
            assert np.max(np.abs(block - want)) <= 1e-14 * scale
        assert gen.transfer_blocks.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            gen.transfer_blocks[0, 0, 0] = 1.0

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_back_rotation_matches_the_dense_change_of_basis(self, d):
        rng = np.random.default_rng(50 + d)
        transfer = rng.normal(size=(3, d * d, d * d))
        u = hermitian_basis_matrix(d)
        superop = superoperator_of_choi(from_hermitian_basis(transfer, d), d)
        assert np.max(np.abs(superop - u @ transfer @ u.conj().T)) <= 1e-15 * d * d
        assert from_hermitian_basis(transfer[0], d).shape == (d * d, d * d)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 8), n=st.integers(1, 3),
           scale=st.sampled_from([1e-6, 1.0, 1e6]))
    def test_choi_layout_is_exactly_hermitian(self, seed, d, n, scale):
        # So the bridge sweep checks only the trace of these states: equal to
        # their conjugate transpose with no rounding (the diagonal's zero
        # imaginary parts may differ in sign only), and real on the diagonal.
        # Any real transfer matrix is a Hermiticity-preserving map, so its
        # Choi state is Hermitian, and the back rotation keeps that exact.
        transfer = scale * np.random.default_rng(seed).normal(size=(n, d * d, d * d))
        got = from_hermitian_basis(transfer, d)
        assert np.array_equal(got, np.swapaxes(got, -1, -2).conj())
        assert np.all(np.diagonal(got, axis1=-2, axis2=-1).imag == 0.0)


class TestRequireHermitian:
    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1e-6], [0.0, 0.0]])
        with pytest.raises(ValueError, match="not Hermitian"):
            require_hermitian(m)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, -np.inf)])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_rejects_non_finite_entries(self, entry, where):
        # A NaN asymmetry compares false with the tolerance; it must still fail.
        m = np.zeros((2, 3, 3), dtype=complex)
        m[(1, *where)] = entry
        with pytest.raises(ValueError, match="non-finite"):
            require_hermitian(m)

    def test_rejection_reports_asymmetry(self):
        m = np.array([[0.0, 3e-7], [0.0, 0.0]])
        with pytest.raises(ValueError, match="3.000e-07"):
            require_hermitian(m)

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(11)
        for n in (2, 4, 9, 16):
            m = random_hermitian(rng, n)
            lam, vec = np.linalg.eigh(require_hermitian(m))
            rebuilt = (vec * lam) @ vec.conj().T
            assert np.max(np.abs(rebuilt - m)) < 1e-9

    def test_require_hermitian_checks_each_matrix_of_a_stack(self):
        rng = np.random.default_rng(13)
        stack = np.array([random_hermitian(rng, 3) for _ in range(4)])
        out = require_hermitian(stack)
        assert np.array_equal(out, 0.5 * (stack + np.swapaxes(stack, 1, 2).conj()))
        stack[2, 0, 1] += 1e-6
        with pytest.raises(ValueError, match="1.000e-06"):
            require_hermitian(stack)
        with pytest.raises(ValueError, match="square"):
            require_hermitian(np.zeros((2, 3, 2)))
