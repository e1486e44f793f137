"""Channel construction against circuit-level and sampling oracles."""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

import multiport as mp
from conftest import make_bundles, make_system

RNG = np.random.default_rng


def circuit_voltage_oracle(system: mp.ImpedanceSystem, u_gen: np.ndarray) -> np.ndarray:
    """Load voltages from the unilateral two-port circuit equations.

    Solves the stacked linear system for the port currents with the
    reverse coupling removed, then reads the load voltage; independent
    of the matrix-product form under test.
    """
    n, m = system.n_tx, system.n_rx
    a = np.zeros((n + m, n + m), dtype=complex)
    a[:n, :n] = system.z_tx + system.z_source * np.eye(n)
    a[n:, :n] = system.z_coupling
    a[n:, n:] = system.z_rx + system.z_load * np.eye(m)
    rhs = np.concatenate([u_gen, np.zeros(m, dtype=complex)])
    currents = np.linalg.solve(a, rhs)
    return -system.z_load * currents[n:]


class TestVoltageTransfer:
    def test_matches_circuit_solve(self, default_noise):
        system = make_system(5, (3,), seed=10)
        d = mp.voltage_transfer(system)
        rng = RNG(0)
        for _ in range(5):
            u_gen = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            oracle = circuit_voltage_oracle(system, u_gen)
            assert np.allclose(d @ u_gen, oracle, rtol=1e-12)

    def test_shape(self):
        system = make_system(4, (1, 1), seed=11)
        assert mp.voltage_transfer(system).shape == (2, 4)


class TestPowerCoupling:
    def test_radiated_power_quadratic_form(self):
        # P_rad = i^H Re(z_tx) i for i = (z_tx + z_source I)^-1 u_gen
        # must equal u^H B u / source_resistance.
        system = make_system(6, (1,), seed=12)
        b = mp.power_coupling(system)
        a_inv = np.linalg.inv(system.z_tx + system.z_source * np.eye(6))
        r_tx = (0.5 * (system.z_tx + system.z_tx.conj().T)).real
        rng = RNG(1)
        for _ in range(5):
            u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            i = a_inv @ u
            p_rad = float(np.real(i.conj() @ r_tx @ i))
            quad_form = float(np.real(u.conj() @ b @ u)) / system.z_source.real
            assert p_rad == pytest.approx(quad_form, rel=1e-12)

    def test_root_reconstructs(self):
        system = make_system(7, (1,), seed=13)
        b = mp.power_coupling(system)
        root = mp.power_coupling_root(system)
        assert np.allclose(root @ root.conj().T, b, rtol=1e-11, atol=1e-14)

    def test_psd(self):
        system = make_system(5, (1,), seed=14)
        w = np.linalg.eigvalsh(mp.power_coupling(system))
        assert w.min() >= -1e-12 * w.max()

    def test_decoupled_root_equals_full_root_for_diagonal(self, termination):
        # A strictly diagonal transmit matrix has no coupling to ignore.
        z_tx = np.diag([70 + 40j, 73 + 42j, 68 + 45j])
        system = mp.ImpedanceSystem(
            z_tx=z_tx,
            z_rx=np.array([[mp.dipole_self_impedance()]]),
            z_coupling=np.full((1, 3), 0.01 + 0.01j),
            z_source=termination,
            z_load=termination,
        )
        full = mp.power_coupling_root(system)
        diag = mp.decoupled_power_root(system)
        assert np.allclose(full, np.diag(diag), rtol=1e-12, atol=1e-15)

    def test_decoupled_root_rejects_passive_violation(self, termination):
        z_tx = np.diag([-5 + 40j, 73 + 42j]).astype(complex)
        system = mp.ImpedanceSystem.__new__(mp.ImpedanceSystem)
        object.__setattr__(system, "z_tx", z_tx)
        object.__setattr__(system, "z_rx", np.array([[73 + 42j]]))
        object.__setattr__(system, "z_coupling", np.zeros((1, 2), complex))
        object.__setattr__(system, "z_source", termination)
        object.__setattr__(system, "z_load", termination)
        with pytest.raises(mp.FactorizationError):
            mp.decoupled_power_root(system)


class TestNoiseCovariances:
    def test_port_noise_sampling_oracle(self, termination):
        # Simulate the three physical noise sources and compare the
        # sample covariance of the total port noise voltage against the
        # closed form, including a complex amplifier correlation.
        z_rx = mp.array_impedance_matrix(mp.uniform_circular_array(2, 0.35))
        noise = mp.NoiseConfig(
            voltage_noise_var=4e-14,
            current_noise_var=3e-17,
            correlation=0.3 + 0.4j,
            antenna_temperature_k=290.0,
            bandwidth_hz=740e3,
        )
        system = mp.ImpedanceSystem(
            z_tx=np.array([[mp.dipole_self_impedance()]]),
            z_rx=z_rx,
            z_coupling=np.full((2, 1), 0.01),
            z_source=termination,
            z_load=termination,
        )
        q = mp.port_noise_covariance(system, noise)

        rng = RNG(7)
        n_samp = 200_000
        sigma_u = np.sqrt(noise.voltage_noise_var)
        sigma_i = np.sqrt(noise.current_noise_var)
        rho = noise.correlation

        def cgauss(shape):
            return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)

        w1 = cgauss((2, n_samp))
        w2 = cgauss((2, n_samp))
        i_amp = sigma_i * w1
        u_amp = sigma_u * (rho * w1 + np.sqrt(1 - abs(rho) ** 2) * w2)
        thermal_cov = (
            4 * mp.BOLTZMANN_J_PER_K * 290.0 * 740e3 * (0.5 * (z_rx + z_rx.conj().T)).real
        )
        u_ant = mp.principal_sqrt_psd(thermal_cov.astype(complex)) @ cgauss((2, n_samp))
        total = u_amp - z_rx @ i_amp + u_ant
        sample_cov = total @ total.conj().T / n_samp
        assert np.linalg.norm(sample_cov - q) < 0.03 * np.linalg.norm(q)

        # Output covariance: loaded-port voltage scaled to power units.
        bundle = mp.build_bundle(system, noise)
        v_load = termination * np.linalg.solve(
            z_rx + termination * np.eye(2), total
        )
        sample_out = (v_load @ v_load.conj().T / n_samp) / termination.real
        assert (
            np.linalg.norm(sample_out - bundle.output_noise_covariance)
            < 0.03 * np.linalg.norm(bundle.output_noise_covariance)
        )

    def test_noise_root_and_scale(self, default_noise):
        _, up = make_bundles(make_system(4, (3,), seed=15))
        cov = up.output_noise_root @ up.output_noise_root.conj().T
        assert np.allclose(cov, up.output_noise_covariance, rtol=1e-10, atol=1e-30)
        m = up.n_rx
        assert up.noise_scale**2 == pytest.approx(
            float(np.trace(up.output_noise_covariance).real) / m, rel=1e-12
        )

    def test_scalar_receive_side_uses_real_root(self, default_noise):
        down, _ = make_bundles(make_system(5, (1, 1, 1), seed=16))
        root = down.output_noise_root
        assert np.allclose(root, root[0, 0].real * np.eye(3), atol=1e-25)
        assert root[0, 0].imag == 0.0

    def test_zero_noise_raises_factorization_error(self, termination):
        system = make_system(3, (1,), seed=17)
        dead = mp.NoiseConfig(
            voltage_noise_var=0.0,
            current_noise_var=0.0,
            antenna_temperature_k=0.0,
        )
        with pytest.raises(mp.FactorizationError):
            mp.build_bundle(system, dead)


def per_system_channels(
    system: mp.ImpedanceSystem, noise: mp.NoiseConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Channel, mismatched and assumed channels composed from one system.

    Whitens the system's own voltage transfer by its output noise root
    and divides out the transmit power roots, without the front-end
    factorization under test.
    """
    m = system.n_rx
    d = mp.voltage_transfer(system)
    q = mp.port_noise_covariance(system, noise)
    z_load = system.z_load
    a_rx = system.z_rx + z_load * np.eye(m)
    if mp.is_scalar_matrix(system.z_rx):
        sigma_out = (
            abs(z_load) * np.sqrt(q[0, 0].real)
            / (np.sqrt(z_load.real) * abs(system.z_rx[0, 0] + z_load))
        )
        noise_root = sigma_out * np.eye(m)
    else:
        noise_root = (z_load / np.sqrt(z_load.real)) * np.linalg.solve(
            a_rx, np.linalg.cholesky(q)
        )
    out_cov = noise_root @ noise_root.conj().T
    sigma = np.sqrt(np.trace(out_cov).real / m)
    whitened = np.linalg.solve(noise_root, d)
    diag_root = np.conj(mp.decoupled_power_root(system))[None, :]
    channel = sigma * whitened @ np.linalg.inv(mp.power_coupling_root(system).conj().T)
    mismatched = sigma * whitened / diag_root
    assumed = sigma * d / np.sqrt(np.diag(out_cov).real)[:, None] / diag_root
    return channel, mismatched, assumed


class TestFrontEnd:
    @pytest.mark.parametrize("partition", [(1,), (3,), (1, 1, 1)])
    def test_map_reproduces_per_system_channels(self, partition, default_noise):
        # One front end per direction serves every coupling realization.
        first = make_system(7, partition, seed=30)
        down = mp.front_end(first, default_noise)
        up = mp.front_end(mp.reversed_link(first), default_noise)
        for realization in range(4):
            system = make_system(7, partition, seed=30, realization=realization)
            for front, sys_dir in (
                (down, system),
                (up, mp.reversed_link(system)),
            ):
                z21 = sys_dir.z_coupling
                mapped = (mp.link_channel(front, z21), *mp.naive_channels(front, z21))
                for got, want in zip(mapped, per_system_channels(sys_dir, default_noise)):
                    rel = np.linalg.norm(got - want) / np.linalg.norm(want)
                    assert rel < 1e-13
            fwd, rev = make_bundles(system, default_noise)
            predicted = mp.reciprocal_channel(fwd, rev)
            rel = np.linalg.norm(predicted - fwd.channel) / np.linalg.norm(fwd.channel)
            assert rel < 1e-12

    def test_holds_mismatch_power_matrix(self, default_noise):
        system = make_system(5, (2,), seed=31)
        front = mp.front_end(system, default_noise)
        bundle = mp.build_bundle(system, default_noise)
        assert isinstance(bundle, mp.FrontEnd)
        for f in fields(mp.FrontEnd):
            assert np.array_equal(getattr(bundle, f.name), getattr(front, f.name)), f.name

    def test_ignores_coupling_block(self, default_noise):
        system = make_system(4, (3,), seed=32)
        other = mp.ImpedanceSystem(
            z_tx=system.z_tx,
            z_rx=system.z_rx,
            z_coupling=np.zeros_like(system.z_coupling),
            z_source=system.z_source,
            z_load=system.z_load,
        )
        a = mp.front_end(system, default_noise)
        b = mp.front_end(other, default_noise)
        assert np.array_equal(a.rx_map, b.rx_map)
        assert np.array_equal(a.tx_map, b.tx_map)


class TestNoiseConfig:
    def test_default_values(self):
        noise = mp.NoiseConfig.default()
        four_ktb = 4 * 1.380649e-23 * 290.0 * 740e3
        assert noise.voltage_noise_var == pytest.approx(four_ktb * 5.0, rel=1e-15)
        assert noise.current_noise_var == pytest.approx(four_ktb * 2e-3, rel=1e-15)
        assert noise.correlation == 0.0
        assert noise.antenna_temperature_k == 290.0
        assert noise.bandwidth_hz == 740e3

    def test_validation(self):
        with pytest.raises(ValueError):
            mp.NoiseConfig(voltage_noise_var=-1.0, current_noise_var=0.0)
        with pytest.raises(ValueError):
            mp.NoiseConfig(voltage_noise_var=0.0, current_noise_var=0.0, correlation=1.5)
        with pytest.raises(ValueError):
            mp.NoiseConfig(voltage_noise_var=0.0, current_noise_var=0.0, bandwidth_hz=0.0)
        for field, value in [
            ("voltage_noise_var", float("inf")),
            ("current_noise_var", float("nan")),
            ("correlation", complex(float("nan"), 0.0)),
            ("antenna_temperature_k", float("inf")),
            ("bandwidth_hz", float("nan")),
        ]:
            kwargs = {"voltage_noise_var": 0.0, "current_noise_var": 0.0, field: value}
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                mp.NoiseConfig(**kwargs)


class TestImpedanceSystem:
    def test_validation(self, termination):
        good = make_system(3, (2,), seed=18)
        with pytest.raises(ValueError):
            mp.ImpedanceSystem(
                z_tx=good.z_tx,
                z_rx=good.z_rx,
                z_coupling=good.z_coupling.T,  # wrong orientation
                z_source=termination,
                z_load=termination,
            )
        with pytest.raises(ValueError):
            mp.ImpedanceSystem(
                z_tx=good.z_tx + np.triu(np.ones((3, 3))),  # breaks symmetry
                z_rx=good.z_rx,
                z_coupling=good.z_coupling,
                z_source=termination,
                z_load=termination,
            )
        with pytest.raises(ValueError):
            mp.ImpedanceSystem(
                z_tx=good.z_tx,
                z_rx=good.z_rx,
                z_coupling=good.z_coupling,
                z_source=-50.0 + 0j,
                z_load=termination,
            )

    def test_reversed_link_swaps_sides(self):
        system = make_system(4, (2,), seed=19)
        rev = mp.reversed_link(system)
        assert np.array_equal(rev.z_tx, system.z_rx)
        assert np.array_equal(rev.z_rx, system.z_tx)
        assert np.array_equal(rev.z_coupling, system.z_coupling.T)
        assert mp.reversed_link(rev).z_tx is not None
        assert np.array_equal(mp.reversed_link(rev).z_coupling, system.z_coupling)

    def test_is_scalar_matrix(self):
        z = (73 + 42j) * np.eye(3)
        assert mp.is_scalar_matrix(z)
        z[0, 1] = 1e-30
        assert not mp.is_scalar_matrix(z)
        assert not mp.is_scalar_matrix(np.diag([1 + 0j, 2 + 0j]))
        assert mp.is_scalar_matrix(np.array([[5.0 + 1j]]))


class TestChannelIdentities:
    def test_two_form_equality_nonscalar_receive(self, default_noise):
        # Product form through the voltage transfer equals the direct
        # whitened form through the raw coupling block.
        system = make_system(6, (4,), seed=20)
        down = mp.build_bundle(system, default_noise)
        low = np.linalg.cholesky(down.port_noise_covariance)
        r_tx_root = mp.principal_sqrt_psd(
            (0.5 * (system.z_tx + system.z_tx.conj().T)).real.astype(complex)
        )
        scale = down.noise_scale * np.sqrt(system.z_load.real / system.z_source.real)
        direct = scale * np.linalg.solve(low, system.z_coupling) @ np.linalg.inv(r_tx_root)
        rel = np.linalg.norm(direct - down.channel) / np.linalg.norm(down.channel)
        assert rel < 1e-10

    def test_scalar_receive_collapses_mismatched_channels(self, default_noise):
        # With uncorrelated receive noise the two naive channels agree.
        down, _ = make_bundles(make_system(5, (1, 1), seed=21))
        assert np.allclose(
            down.channel_mismatched, down.channel_assumed, rtol=1e-12, atol=1e-15
        )

    def test_uncoupled_transmit_collapses_naive_channel(self, termination, default_noise):
        z_tx = mp.dipole_self_impedance() * np.eye(4)
        z21 = mp.coupling_realization(3, 0, 0, 1, 4, mp.far_field_coupling_std())
        system = mp.ImpedanceSystem(
            z_tx=z_tx,
            z_rx=np.array([[mp.dipole_self_impedance()]]),
            z_coupling=z21,
            z_source=termination,
            z_load=termination,
        )
        down = mp.build_bundle(system, default_noise)
        assert np.allclose(down.channel, down.channel_mismatched, rtol=1e-12)
        assert np.allclose(down.channel, down.channel_assumed, rtol=1e-12)

    def test_coupling_reciprocity_of_voltage_transfer(self):
        # Equal terminations at both sides make the reverse transfer
        # the exact transpose.
        system = make_system(5, (3,), seed=22)
        d_fwd = mp.voltage_transfer(system)
        d_rev = mp.voltage_transfer(mp.reversed_link(system))
        assert np.linalg.norm(d_rev.T - d_fwd) < 1e-12 * np.linalg.norm(d_fwd)

    @pytest.mark.parametrize("partition", [(1,), (3,), (1, 1), (2, 2)])
    def test_reverse_transform_recovers_channel(self, partition, default_noise):
        down, up = make_bundles(make_system(6, partition, seed=23))
        predicted = mp.reciprocal_channel(down, up)
        rel = np.linalg.norm(predicted - down.channel) / np.linalg.norm(down.channel)
        assert rel < 1e-12

    def test_single_receiver_transfer_identity(self, default_noise):
        # For one receive port the forward channel equals the reverse
        # voltage transfer projected through the forward power root.
        down, up = make_bundles(make_system(9, (1,), seed=24, tx_spacing=0.35))
        identity = up.voltage_transfer.T @ np.linalg.inv(
            down.power_coupling_root.conj().T
        )
        rel = np.linalg.norm(identity - down.channel) / np.linalg.norm(down.channel)
        assert rel < 1e-12

    def test_ordinary_reciprocity_fails_under_coupling(self, default_noise):
        down, up = make_bundles(make_system(9, (1,), seed=25, tx_spacing=0.35))
        gap = np.linalg.norm(down.channel - up.channel.T) / np.linalg.norm(down.channel)
        assert gap > 1e-3

    def test_mismatch_power_matrix_definition(self, default_noise):
        down, _ = make_bundles(make_system(5, (1,), seed=26))
        inv_root = np.diag(1.0 / down.decoupled_power_root)
        expected = inv_root @ down.power_coupling @ inv_root.conj().T
        assert np.allclose(down.mismatch_power, expected, rtol=1e-11, atol=1e-15)

    def test_mismatch_power_matrix_identity_when_uncoupled(
        self, termination, default_noise
    ):
        z_tx = mp.dipole_self_impedance() * np.eye(3)
        system = mp.ImpedanceSystem(
            z_tx=z_tx,
            z_rx=np.array([[mp.dipole_self_impedance()]]),
            z_coupling=np.full((1, 3), 0.005 + 0.002j),
            z_source=termination,
            z_load=termination,
        )
        down = mp.build_bundle(system, default_noise)
        assert np.allclose(down.mismatch_power, np.eye(3), atol=1e-12)
