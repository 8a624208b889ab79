import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coherence_forge
from coherence_forge import (
    TWO_QUBIT_SPECTRUM,
    FilterFamily,
    FilterTarget,
    QState,
    QubitParams,
    TwoQubitFilterParams,
    apply_filter,
    coherence,
    mean_energy,
    mixed_qubit_product,
    objective_value,
    optimal_filter,
    product_pure_state,
    trace_frontier,
    tsallis_optimal_filter,
)
from coherence_forge.cli import (
    EXIT_DOMAIN,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    main,
    write_frontier_csv,
    write_frontier_svg,
)
from coherence_forge.oracle import MAX_GRID_POINTS, MAX_TAIL_ROWS, grid_search
from coherence_forge.statecore import filter_from_text, qstate_to_text
from coherence_forge.synthesis import MAX_SAMPLE_POINTS
from exact_reference import assert_energy_optimum, knapsack_mean_energy


# one quick run of each subcommand; "{}" stands for an output directory
SUBCOMMAND_RUNS = [
    ["filter", "--p", "0.1", "--ps", "0.04", "--target", "coherence"],
    ["frontier", "--p", "0.1", "--grid", "4", "--out-csv", "{}/f.csv"],
    ["mixed-scan", "--eta", "0.5", "--steps", "2", "--out-csv", "{}/s.csv"],
    ["iterate", "--p", "0.1"],
    ["choi", "--a", "0.3", "--b", "0.7", "--out", "{}/chi.txt"],
    ["oracle", "--p", "0.1", "--ps", "0.5", "--target", "energy", "--grid-step", "0.1"],
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFilterCommand:
    def test_coherence_equalization(self, capsys):
        code, out, _ = run(
            capsys, "filter", "--p", "0.1", "--ps", "0.04", "--target", "coherence"
        )
        assert code == EXIT_OK
        assert "a = 0.111111111111" in out
        assert "b = 0.333333333333" in out
        assert "1.38629436112 nats" in out
        assert "bits" in out

    def test_identity_energy_filter(self, capsys):
        code, out, _ = run(
            capsys, "filter", "--p", "0.1", "--ps", "1.0", "--target", "energy"
        )
        assert code == EXIT_OK
        assert "a = 1  b = 1" in out
        assert "P_S achieved = 1" in out
        assert "mean energy = 0.2" in out

    def test_out_of_range_exits_2(self, capsys):
        # the synthesizer's own floors: p^2 and 4p^2 on the two-qubit state
        code, out, err = run(
            capsys, "filter", "--p", "0.1", "--ps", "0.005", "--target", "energy"
        )
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err == "error: P_S below the population 0.01 of the highest-energy class\n"
        code, out, err = run(
            capsys, "filter", "--p", "0.1", "--ps", "0.03", "--target", "coherence"
        )
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err == "error: P_S below the full-equalization minimum 0.04\n"

    def test_p_above_one_half(self, capsys):
        # outside the closed forms' domain 0 < p < 1/2: the water-fill
        # attenuates the now dominant |11> and a pair of |01>, |10>
        code, out, err = run(capsys, "filter", "--p", "0.7", "--ps", "0.6", "--target", "coherence")
        assert (code, err) == (EXIT_OK, "")
        pops = product_pure_state(0.7, 2).populations
        coeffs = [float(v) for v in out.split("m = [")[1].split("]")[0].split(", ")]
        k = (0.6 - pops[0]) / 3
        assert coeffs == pytest.approx([1.0, *np.sqrt(k / pops[1:])], abs=1e-11)
        assert "P_S achieved = 0.6\n" in out

    def test_malformed_flags_exit_1(self, capsys):
        code, _, _ = run(capsys, "filter", "--p", "0.1", "--target", "energy")
        assert code == EXIT_USAGE
        code, _, _ = run(
            capsys, "filter", "--p", "oops", "--ps", "0.1", "--target", "energy"
        )
        assert code == EXIT_USAGE

    def test_filter_output_file(self, capsys, tmp_path):
        path = tmp_path / "filter.txt"
        code, out, _ = run(
            capsys,
            "filter",
            "--p",
            "0.1",
            "--ps",
            "0.28",
            "--target",
            "coherence",
            "--out",
            str(path),
        )
        assert code == EXIT_OK
        written = filter_from_text(path.read_text())
        assert np.allclose(written.coeffs, [1 / 3, 1, 1, 1], atol=1e-12)

    def test_tsallis_target_reads_a_state_file(self, capsys, tmp_path):
        state_path = tmp_path / "mixed.txt"
        state_path.write_text(qstate_to_text(mixed_qubit_product(QubitParams(p=0.2, eta=0.75), 2)))
        code, out, _ = run(
            capsys, "filter", "--state", str(state_path), "--ps", "0.3",
            "--target", "tsallis",
        )
        assert code == EXIT_OK
        assert "P_S achieved = 0.3" in out

    @pytest.mark.parametrize("ps", ["2e-14", "1e-13"])
    def test_energy_target_at_a_tiny_success_probability(self, capsys, tmp_path, ps):
        # the cut class is the highest one with population: it alone passes
        # P_S, met to the last digits printed
        state_path = tmp_path / "state.txt"
        state_path.write_text(qstate_to_text(QState.pure(np.sqrt([0.25, 0.25, 0.5, 0.0]))))
        code, out, err = run(
            capsys, "filter", "--target", "energy",
            "--state", str(state_path), "--ps", ps,
        )
        assert (code, err) == (EXIT_OK, "")
        achieved = float(out.split("P_S achieved = ")[1].split()[0])
        assert abs(achieved - float(ps)) <= 1e-12 * float(ps)
        assert "output mean energy = 1\n" in out

    def test_energy_target_at_a_tiny_success_probability_under_a_populated_top(
        self, capsys, tmp_path
    ):
        # the top level passes 1e-13 whole, the cut class the other 5e-14
        state_path = tmp_path / "state.txt"
        state = QState.pure(np.sqrt([0.5, 0.25, 0.25 - 1e-13, 1e-13]))
        state_path.write_text(qstate_to_text(state))
        code, out, err = run(
            capsys, "filter", "--target", "energy",
            "--state", str(state_path), "--ps", "1.5e-13",
        )
        assert (code, err) == (EXIT_OK, "")
        achieved = float(out.split("P_S achieved = ")[1].split()[0])
        assert abs(achieved - 1.5e-13) <= 1e-12 * 1.5e-13

    def test_energy_target_at_a_tiny_success_probability_with_a_level_below_zero_population(
        self, capsys, tmp_path
    ):
        # level 1 holds 2e-17: it is zeroed with its class, not passed on top
        # of P_S (the achieved P_S read 1.47002e-12 when it kept amplitude 1)
        state_path = tmp_path / "state.txt"
        state = QState.pure(np.sqrt([0.4, 2e-17, 0.3, 0.15, 0.1, 0.05 - 3e-12, 2e-12, 1e-12]))
        state_path.write_text(qstate_to_text(state))
        code, out, err = run(
            capsys, "filter", "--target", "energy",
            "--state", str(state_path), "--spectrum", "0,1,2,3,4,5,6,7", "--ps", "1.47e-12",
        )
        assert (code, err) == (EXIT_OK, "")
        achieved = float(out.split("P_S achieved = ")[1].split()[0])
        assert abs(achieved - 1.47e-12) <= 1e-12 * 1.47e-12

    @pytest.mark.parametrize("n", [3, 4])
    def test_energy_target_with_the_physical_spectrum(self, capsys, tmp_path, n):
        # excitation counts in basis order; at P_S = p^n the optimum keeps only
        # the all-excited level, which holds the top energy n
        levels = [bin(j).count("1") for j in range(2**n)]
        state_path = tmp_path / "state.txt"
        state_path.write_text(qstate_to_text(product_pure_state(0.3, n)))
        argv = ["filter", "--target", "energy", "--state", str(state_path),
                "--spectrum", ",".join(map(str, levels))]
        code, out, err = run(capsys, *argv, "--ps", repr(0.3**n))
        assert (code, err) == (EXIT_OK, "")
        assert float(out.split("output mean energy = ")[1].split()[0]) == pytest.approx(n, abs=1e-9)
        for bad in (",".join(map(str, levels[:-1])), ",".join(map(str, levels[:-1] + [float("nan")]))):
            code, out, err = run(capsys, *argv[:-1], bad, "--ps", "0.5")
            assert code == EXIT_DOMAIN and out == ""

    @pytest.mark.parametrize(
        "spectrum, ps",
        [("0,1,2,3", "0.1"), ("0,1,1,1", "0.5"), ("0,0,1,2", "0.1"), ("0,0,0,0", "1"),
         ("1,0,0,2", "0.1"), ("0,1,2,1", "0.5"), ("2,1,1,0", "0.9"), ("0,2,2,4", "0.1")],
    )
    def test_energy_filter_on_any_spectrum_layout(self, capsys, tmp_path, spectrum, ps):
        # every layout gets the energy optimum, checked in exact rationals
        out_path = tmp_path / "filter.txt"
        code, out, err = run(
            capsys, "filter", "--p", "0.1", "--ps", ps, "--target", "energy",
            "--spectrum", spectrum, "--out", str(out_path),
        )
        assert (code, err) == (EXIT_OK, "")
        levels = [float(x) for x in spectrum.split(",")]
        coeffs = filter_from_text(out_path.read_text()).coeffs
        pops = product_pure_state(0.1, 2).populations
        assert_energy_optimum(pops, levels, coeffs, float(ps), 1e-12)
        energy = float(out.split("output mean energy = ")[1].split()[0])
        exact = float(knapsack_mean_energy(pops, levels, float(ps)))
        assert energy == pytest.approx(exact, abs=1e-11)

    def test_coherence_reads_nats_then_bits(self, capsys):
        code, out, _ = run(
            capsys, "filter", "--p", "0.1", "--ps", "0.04", "--target", "coherence"
        )
        assert code == EXIT_OK
        assert "output coherence = 1.38629436112 nats (2 bits)\n" in out


class TestFrontierCommand:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--p", "0", "--family", "factorized"],
            ["--p", "1e-8", "--family", "factorized"],
            ["--p", "1e-7", "--target", "energy", "--family", "optimal"],
        ],
        ids=["factorized-p0", "factorized-p1e-8", "energy-p1e-7"],
    )
    def test_range_starts_at_the_synthesizers_floor(self, capsys, tmp_path, argv):
        # the family's lower edge lies below 2e-14 here; the frontier used to
        # fail on its first grid point
        csv = tmp_path / "z.csv"
        code, out, err = run(capsys, "frontier", *argv, "--grid", "5", "--out-csv", str(csv))
        assert (code, err) == (EXIT_OK, "")
        lines = csv.read_text().splitlines()
        assert len(lines) == 6
        assert [float(line.split(",")[0]) for line in lines[1:]] == [2e-14, 0.25, 0.5, 0.75, 1.0]

    def test_csv_structure_and_values(self, capsys, tmp_path):
        csv = tmp_path / "frontier.csv"
        code, _, _ = run(
            capsys,
            "frontier",
            "--p",
            "0.1",
            "--target",
            "coherence",
            "--family",
            "optimal",
            "--grid",
            "25",
            "--out-csv",
            str(csv),
        )
        assert code == EXIT_OK
        lines = csv.read_text().splitlines()
        assert lines[0] == "p_success,coherence_nats,mean_energy,a,b,family"
        assert len(lines) == 26
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(0.04, abs=1e-9)
        assert first[1].startswith("1.386294361")
        assert first[5] == "optimal"

    def test_rows_revalidate(self, capsys, tmp_path):
        csv = tmp_path / "frontier.csv"
        run(
            capsys,
            "frontier",
            "--p",
            "0.1",
            "--target",
            "coherence",
            "--family",
            "both",
            "--grid",
            "12",
            "--out-csv",
            str(csv),
        )
        state = product_pure_state(0.1, 2)
        for line in csv.read_text().splitlines()[1:]:
            ps, c, e, a, b, _family = line.split(",")
            filt = TwoQubitFilterParams(a=float(a), b=float(b)).to_filter()
            out, actual = apply_filter(state, filt)
            assert actual == pytest.approx(float(ps), abs=1e-9)
            assert coherence(out) == pytest.approx(float(c), abs=1e-9)
            assert mean_energy(out, TWO_QUBIT_SPECTRUM) == pytest.approx(
                float(e), abs=1e-9
            )

    def test_byte_deterministic(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            run(
                capsys,
                "frontier",
                "--p",
                "0.1",
                "--family",
                "both",
                "--grid",
                "10",
                "--out-csv",
                str(path),
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_svg_written_with_both_families(self, capsys, tmp_path):
        csv, svg = tmp_path / "f.csv", tmp_path / "f.svg"
        code, _, _ = run(
            capsys,
            "frontier",
            "--p",
            "0.1",
            "--family",
            "both",
            "--grid",
            "10",
            "--out-csv",
            str(csv),
            "--out-svg",
            str(svg),
        )
        assert code == EXIT_OK
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "optimal" in text and "factorized" in text

    def test_unwritable_path_exits_3(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "frontier",
            "--p",
            "0.1",
            "--grid",
            "5",
            "--out-csv",
            str(tmp_path / "missing" / "deep" / "f.csv"),
        )
        assert code == EXIT_IO

    @pytest.mark.parametrize("spectrum", ["0,1,1,2,1,2,2,3", "0,1,2"])
    def test_wrong_spectrum_size_gets_the_filter_message(self, capsys, tmp_path, spectrum):
        csv = tmp_path / "f.csv"
        frontier = ("frontier", "--p", "0.2", "--target", "energy", "--spectrum", spectrum,
                    "--out-csv", str(csv))
        code, out, err = run(capsys, *frontier)
        assert code == EXIT_DOMAIN
        assert out == ""
        levels = len(spectrum.split(","))
        assert err == f"error: spectrum has {levels} levels but the state has dimension 4\n"
        assert not csv.exists()
        # the filter command words the same mismatch the same way
        filter_code, _, filter_err = run(
            capsys, "filter", "--p", "0.2", "--ps", "0.5", "--target", "energy",
            "--spectrum", spectrum,
        )
        assert (filter_code, filter_err) == (code, err)


class TestMixedScanCommand:
    def test_csv_columns_and_plateau(self, capsys, tmp_path):
        csv = tmp_path / "scan.csv"
        code, _, _ = run(
            capsys,
            "mixed-scan",
            "--eta",
            "0.75",
            "--p-min",
            "0.1",
            "--p-max",
            "0.3",
            "--steps",
            "3",
            "--out-csv",
            str(csv),
        )
        assert code == EXIT_OK
        lines = csv.read_text().splitlines()
        assert lines[0] == "p,eta,coherence_nats,mean_energy,b_opt,input_coherence,input_energy"
        rows = [line.split(",") for line in lines[1:]]
        cs = [float(r[2]) for r in rows]
        es = [float(r[3]) for r in rows]
        assert np.ptp(cs) < 1e-6
        assert np.ptp(es) < 1e-6

    def test_pure_scan_improves_both_measures(self, capsys, tmp_path):
        csv = tmp_path / "scan.csv"
        run(
            capsys,
            "mixed-scan",
            "--eta",
            "1.0",
            "--p-min",
            "0.1",
            "--p-max",
            "0.1",
            "--steps",
            "2",
            "--out-csv",
            str(csv),
        )
        row = csv.read_text().splitlines()[1].split(",")
        assert float(row[2]) > float(row[5])  # coherence above input
        assert float(row[3]) > float(row[6])  # mean energy above input

    def test_dephased_scan_yields_zero_coherence(self, capsys, tmp_path):
        csv = tmp_path / "scan.csv"
        run(
            capsys,
            "mixed-scan",
            "--eta",
            "0",
            "--p-min",
            "0.1",
            "--p-max",
            "0.4",
            "--steps",
            "3",
            "--out-csv",
            str(csv),
        )
        for line in csv.read_text().splitlines()[1:]:
            assert float(line.split(",")[2]) == pytest.approx(0.0, abs=1e-12)

    def test_step_validation(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "mixed-scan",
            "--eta",
            "0.5",
            "--steps",
            "1",
            "--out-csv",
            str(tmp_path / "x.csv"),
        )
        assert code == EXIT_USAGE


class TestIterateCommand:
    def test_identity_single_stage(self, capsys):
        code, out, _ = run(
            capsys, "iterate", "--p", "0.1", "--stages", "1", "--a", "1", "--b", "1"
        )
        assert code == EXIT_OK
        assert "total success probability = 1" in out
        assert "residual (max element) = 0.000e+00" in out
        assert "PASS" in out

    def test_two_stage_ground_removal(self, capsys):
        code, out, _ = run(capsys, "iterate", "--p", "0.1", "--stages", "2")
        assert code == EXIT_OK
        assert "PASS" in out
        residual = float(out.split("residual (max element) = ")[1].split()[0])
        assert residual <= 1e-10

    def test_bad_stage_count(self, capsys):
        code, _, _ = run(capsys, "iterate", "--p", "0.1", "--stages", "3")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "flags",
        [["--p", "0.229143", "--a", "0.406613", "--b", "0.306507"],
         ["--p", "0.1", "--a", "0.5", "--b", "0.7"]],
        ids=["p0.229", "p0.1"],
    )
    def test_optimum_below_full_equalization_is_exact(self, capsys, flags):
        # the total P_S lies below full equalization, where the exact optimum
        # is log 4; a 0.04-step grid search read 0 and 1.098 nats here
        code, out, _ = run(capsys, "iterate", *flags)
        assert code == EXIT_OK
        assert "single-copy optimal coherence at equal P_S = 1.38629436112 nats (2 bits)" in out
        assert out.rstrip().endswith("PASS")

    @pytest.mark.parametrize("flags", [["--p", "1"], ["--p", "0", "--a", "1"]], ids=str)
    def test_one_populated_level_has_zero_optimum(self, capsys, flags):
        code, out, _ = run(capsys, "iterate", *flags)
        assert code == EXIT_OK
        assert "single-copy optimal coherence at equal P_S = 0 nats (0 bits)" in out
        assert out.rstrip().endswith("PASS")

    def test_annihilated_protocol_exits_2(self, capsys):
        code, out, err = run(capsys, "iterate", "--p", "0")
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "every branch of the sequential protocol fails" in err

    def test_seeded_protocols_never_fail(self, capsys):
        rng = np.random.default_rng(0)
        for i in range(300):
            p = float(rng.uniform(0.05, 0.45))
            a, b = (float(x) for x in rng.uniform(0.0, 1.0, size=2))
            stages = int(rng.integers(1, 3))
            code, out, _ = run(
                capsys, "iterate", "--p", repr(p), "--a", repr(a), "--b", repr(b),
                "--stages", str(stages),
            )
            assert code == EXIT_OK
            assert out.rstrip().endswith("PASS"), out
            if i < 30:
                # the grid search never beats the exact optimum
                p_total = float(out.split("total success probability = ")[1].split()[0])
                optimum = float(out.split("at equal P_S = ")[1].split()[0])
                pair = product_pure_state(p, 2)
                best = grid_search(
                    pair, TWO_QUBIT_SPECTRUM, FilterTarget.COHERENCE, p_total, grid_step=0.04
                )
                assert best.objective <= optimum + 1e-9


class TestChoiCommand:
    def test_nominal_filter_self_metrics(self, capsys, tmp_path):
        out_path = tmp_path / "chi.txt"
        code, out, _ = run(
            capsys, "choi", "--a", "0.32", "--b", "0.8", "--out", str(out_path)
        )
        assert code == EXIT_OK
        assert "purity = 1" in out
        assert "fidelity vs ideal = 1" in out
        assert "after phase compensation = 1" in out
        assert out_path.exists()

    def test_injected_phases(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "choi",
            "--a",
            "0.32",
            "--b",
            "0.8",
            "--phases",
            "0,0.2,-0.1,0",
            "--out",
            str(tmp_path / "chi.txt"),
        )
        assert code == EXIT_OK
        fid = float(out.split("fidelity vs ideal = ")[1].splitlines()[0])
        comp = float(out.split("after phase compensation = ")[1].splitlines()[0])
        assert fid < 1.0
        assert comp == pytest.approx(1.0, abs=1e-9)

    def test_fully_filtering_corner(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "choi", "--a", "0", "--b", "0", "--out", str(tmp_path / "chi.txt")
        )
        assert code == EXIT_OK
        assert "purity = 1" in out

    @pytest.mark.parametrize(
        "phases, expected",
        [("0,x", EXIT_USAGE), ("0,nan,0,0", EXIT_DOMAIN), ("0,0.2", EXIT_DOMAIN)],
    )
    def test_bad_phases_exit_cleanly(self, capsys, tmp_path, phases, expected):
        out_path = tmp_path / "chi.txt"
        code, out, err = run(
            capsys, "choi", "--a", "0.5", "--b", "0.5", f"--phases={phases}",
            "--out", str(out_path),
        )
        assert code == expected
        assert out == ""
        assert err.startswith("error: ")
        assert not out_path.exists()
        if expected == EXIT_USAGE:
            assert "cannot parse phases" in err


class TestOracleCommand:
    def test_energy_check_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "oracle",
            "--p",
            "0.1",
            "--ps",
            "0.19",
            "--target",
            "energy",
            "--grid-step",
            "0.02",
        )
        assert code == EXIT_OK
        assert "PASS" in out

    def test_trivial_full_success(self, capsys):
        code, out, _ = run(
            capsys,
            "oracle",
            "--p",
            "0.1",
            "--ps",
            "1.0",
            "--target",
            "coherence",
            "--grid-step",
            "0.05",
        )
        assert code == EXIT_OK
        assert "PASS" in out

    def test_state_file_input(self, capsys, tmp_path):
        state_path = tmp_path / "state.txt"
        state_path.write_text(qstate_to_text(product_pure_state(0.1, 2)))
        code, out, _ = run(
            capsys,
            "oracle",
            "--state",
            str(state_path),
            "--ps",
            "0.04",
            "--target",
            "coherence",
            "--grid-step",
            "0.05",
        )
        assert code == EXIT_OK
        assert "PASS" in out

    def test_requires_exactly_one_input(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "oracle", "--ps", "0.1", "--target", "energy"
        )
        assert code == EXIT_USAGE

    def test_infeasible_tolerance_exits_2(self, capsys):
        code, _, _ = run(
            capsys,
            "oracle",
            "--p",
            "0.1",
            "--ps",
            "0.155",
            "--target",
            "energy",
            "--grid-step",
            "0.5",
            "--tolerance",
            "1e-9",
        )
        assert code == EXIT_DOMAIN


class TestEnvironment:
    def test_threads_env_fallback(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("COHERENCE_FORGE_THREADS", "2")
        csv = tmp_path / "f.csv"
        code, _, _ = run(
            capsys,
            "frontier",
            "--p",
            "0.1",
            "--family",
            "optimal",
            "--grid",
            "8",
            "--out-csv",
            str(csv),
        )
        assert code == EXIT_OK

    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_threads_below_one_exit_1(self, capsys, value):
        code, out, _ = run(
            capsys, "filter", "--p", "0.1", "--ps", "0.04", "--target", "coherence",
            "--threads", value,
        )
        assert code == EXIT_USAGE
        assert out == ""

    def test_threads_flag_is_gone(self, capsys):
        code, out, _ = run(
            capsys, "filter", "--p", "0.1", "--ps", "0.04", "--target", "coherence",
            "--threads", "3",
        )
        assert code == EXIT_USAGE
        assert out == ""

    def test_seed_flag_is_gone(self, capsys):
        code, _, _ = run(
            capsys, "filter", "--p", "0.1", "--ps", "0.04", "--target", "coherence",
            "--seed", "1",
        )
        assert code == EXIT_USAGE


class TestBadInputs:
    """Every malformed input ends in a documented exit code, with nothing
    printed to stdout and no traceback."""

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "# comment only\n\n",
            "dim x\n1 0 0 0\n0 0 0 0\n",
            "dim 2\n1 0 0 0\n",
            "dim 2\n1 0 0 0\n0 0 zero 0\n",
            "dim 2\nnan 0 0 0\n0 0 0 0\n",
        ],
    )
    def test_malformed_state_file_exits_2(self, capsys, tmp_path, text):
        state_path = tmp_path / "state.txt"
        state_path.write_text(text)
        code, out, err = run(
            capsys, "oracle", "--state", str(state_path), "--ps", "0.5", "--target", "energy"
        )
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("ps", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("target", [t.value for t in FilterTarget])
    def test_non_finite_ps_exits_2(self, capsys, ps, target):
        code, out, err = run(capsys, "filter", "--p", "0.1", f"--ps={ps}", "--target", target)
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--ps", "nan", "P_S must be a finite number"),
            ("--ps", "1.5", "P_S exceeds 1"),
            ("--ps", "0", "P_S must be positive"),
            ("--tolerance", "nan", "tolerance must be a positive finite number"),
            ("--tolerance", "inf", "tolerance must be a positive finite number"),
            ("--tolerance", "0", "tolerance must be a positive finite number"),
        ],
    )
    def test_bad_oracle_band_exits_2(self, capsys, option, value, message):
        args = {"--ps": "0.5", "--tolerance": "0.02", option: value}
        code, out, err = run(
            capsys, "oracle", "--p", "0.1", "--target", "energy",
            "--ps", args["--ps"], "--tolerance", args["--tolerance"],
        )
        assert code == EXIT_DOMAIN
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("ps", ["-5e-13", "0"])
    def test_non_positive_ps_exits_2_where_the_range_starts_near_0(self, capsys, tmp_path, ps):
        """The full-equalization minimum is 6e-14, within round-off of 0; a
        P_S of -5e-13 used to print the identity filter and exit 0."""
        state_path = tmp_path / "near_zero.txt"
        state_path.write_text(qstate_to_text(QState.pure(np.sqrt([2e-14, 0.5, 0.5 - 2e-14]))))
        code, out, err = run(
            capsys, "filter", "--state", str(state_path), f"--ps={ps}",
            "--target", "coherence", "--spectrum", "0,1,2",
        )
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "P_S below the full-equalization minimum" in err

    def test_tsallis_state_above_level_limit_exits_2(self, capsys, tmp_path):
        state_path = tmp_path / "state13.txt"
        state_path.write_text(qstate_to_text(QState.pure(np.ones(13))))
        code, out, err = run(
            capsys, "filter", "--state", str(state_path), "--ps", "0.5",
            "--target", "tsallis",
            "--spectrum", ",".join(str(k) for k in range(13)),
        )
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "12 populated levels" in err

    def test_filter_needs_exactly_one_state_source(self, capsys, tmp_path):
        state_path = tmp_path / "state.txt"
        state_path.write_text(qstate_to_text(product_pure_state(0.1, 2)))
        code, _, _ = run(capsys, "filter", "--ps", "0.5", "--target", "tsallis")
        assert code == EXIT_USAGE
        code, _, err = run(
            capsys, "filter", "--p", "0.1", "--state", str(state_path), "--ps", "0.5",
            "--target", "tsallis",
        )
        assert code == EXIT_USAGE
        assert "exactly one of --p or --state" in err
        # a state file of the --p state prints what --p prints
        from_file = run(
            capsys, "filter", "--state", str(state_path), "--ps", "0.5", "--target", "energy"
        )
        from_p = run(capsys, "filter", "--p", "0.1", "--ps", "0.5", "--target", "energy")
        assert from_file == from_p
        assert from_p[0] == EXIT_OK and "P_S achieved = 0.5\n" in from_p[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["filter", "--ps", "0.5", "--target", "energy", "--state"],
            ["oracle", "--ps", "0.5", "--target", "energy", "--state"],
        ],
        ids=["filter", "oracle"],
    )
    def test_non_utf8_state_file_exits_2(self, capsys, tmp_path, argv):
        state_path = tmp_path / "state.txt"
        state_path.write_bytes(b"\xffdim 2\n")
        code, out, err = run(capsys, *argv, str(state_path))
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err == f"error: state file {state_path} is not UTF-8 text (byte 0)\n"

    def test_file_after_config_is_not_read(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"\xffp = 0.1\n")
        code, out, err = run(
            capsys, "filter", "--config", str(config), "--p", "0.1", "--ps", "0.5",
            "--target", "energy",
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: unrecognized arguments: --config {config}\n"

    @pytest.mark.parametrize("grid", [MAX_SAMPLE_POINTS + 1, 10**12])
    def test_frontier_grid_above_the_cap_exits_2(self, capsys, tmp_path, grid):
        csv = tmp_path / "f.csv"
        code, out, err = run(
            capsys, "frontier", "--p", "0.1", "--grid", str(grid), "--out-csv", str(csv)
        )
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err == f"error: grid must contain at most {MAX_SAMPLE_POINTS} points, got {grid}\n"
        assert not csv.exists()

    @pytest.mark.parametrize("steps", [MAX_SAMPLE_POINTS + 1, 10**12])
    def test_mixed_scan_steps_above_the_cap_exit_1(self, capsys, tmp_path, steps):
        csv = tmp_path / "s.csv"
        code, out, err = run(
            capsys, "mixed-scan", "--eta", "0.5", "--steps", str(steps), "--out-csv", str(csv)
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: --steps must be at most {MAX_SAMPLE_POINTS}\n"
        assert not csv.exists()

    def test_wrong_spectrum_size_prints_nothing(self, capsys):
        code, out, err = run(
            capsys, "filter", "--p", "0.1", "--ps", "0.5", "--target", "energy",
            "--spectrum", "0,1,2",
        )
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "3 levels" in err


def test_import_loads_neither_scipy_nor_thread_pools():
    code = (
        "import sys, coherence_forge, coherence_forge.cli\n"
        "print(sorted(m for m in ('scipy', 'concurrent.futures') if m in sys.modules))"
    )
    src = Path(coherence_forge.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", SUBCOMMAND_RUNS, ids=lambda argv: argv[0])
def test_closed_stdout_exits_3_without_an_error_line(tmp_path, argv, buffered):
    """The read end of the stdout pipe is closed before the run starts. A
    buffered stdout meets it in the flush after the handler, an unbuffered one
    in the first ``print``."""
    src = Path(coherence_forge.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "coherence_forge.cli", *(t.format(tmp_path) for t in argv)],
            env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (EXIT_IO, b"")


class TestOnePathPerJob:
    """The CLI reaches the synthesizers through ``optimal_filter`` and writes
    frontiers through the public writers, for every target."""

    STATE = product_pure_state(0.1, 2)

    @pytest.mark.parametrize("target", [t.value for t in FilterTarget])
    def test_frontier_files_equal_the_library_writers(self, capsys, tmp_path, target):
        csv, svg = tmp_path / "cli.csv", tmp_path / "cli.svg"
        code, _, _ = run(
            capsys, "frontier", "--p", "0.1", "--target", target, "--family", "both",
            "--grid", "9", "--out-csv", str(csv), "--out-svg", str(svg),
        )
        assert code == EXIT_OK
        traced = {
            fam: trace_frontier(
                self.STATE, TWO_QUBIT_SPECTRUM, FilterTarget(target), fam, grid=9
            )
            for fam in FilterFamily
        }
        write_frontier_csv(tmp_path / "lib.csv", [pt for pts in traced.values() for pt in pts])
        write_frontier_svg(tmp_path / "lib.svg", traced, FilterTarget(target), "p = 0.1")
        assert csv.read_bytes() == (tmp_path / "lib.csv").read_bytes()
        assert svg.read_bytes() == (tmp_path / "lib.svg").read_bytes()

    @pytest.mark.parametrize("target", [t.value for t in FilterTarget])
    def test_filter_writes_the_optimal_filter(self, capsys, tmp_path, target):
        out = tmp_path / "filter.txt"
        code, text, _ = run(
            capsys, "filter", "--p", "0.1", "--ps", "0.3", "--target", target, "--out", str(out),
        )
        assert code == EXIT_OK
        expected = optimal_filter(self.STATE, TWO_QUBIT_SPECTRUM, FilterTarget(target), 0.3)
        assert np.allclose(filter_from_text(out.read_text()).coeffs, expected.coeffs, atol=1e-15)
        assert "P_S achieved = 0.3" in text

    def test_oracle_checks_the_tsallis_synthesizer(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--p", "0.1", "--ps", "0.3", "--target", "tsallis",
            "--grid-step", "0.05",
        )
        assert code == EXIT_OK
        synth = tsallis_optimal_filter(self.STATE, 0.3)
        value = objective_value(
            self.STATE, TWO_QUBIT_SPECTRUM, FilterTarget.COHERENCE_TSALLIS, synth
        )
        assert f"synthesized objective = {value:.12g}" in out
        assert out.rstrip().endswith("PASS")

    def test_oracle_rejects_a_mixed_coherence_input_before_searching(
        self, capsys, tmp_path, monkeypatch
    ):
        def no_search(*args, **kwargs):
            raise AssertionError("grid_search ran on an input the synthesizer rejects")

        monkeypatch.setattr(coherence_forge.oracle, "grid_search", no_search)
        state_path = tmp_path / "mixed.txt"
        state_path.write_text(qstate_to_text(mixed_qubit_product(QubitParams(p=0.2, eta=0.75), 2)))
        code, out, err = run(
            capsys, "oracle", "--state", str(state_path), "--ps", "0.5", "--target", "coherence"
        )
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "input is not pure" in err

    def test_oracle_grid_above_the_tail_limit_exits_2(self, capsys):
        code, out, err = run(
            capsys, "oracle", "--p", "0.1", "--ps", "0.19", "--target", "energy",
            "--grid-step", "0.001",
        )
        assert code == EXIT_DOMAIN
        assert out == ""
        assert f"needs 1003003001 tail rows at dimension 4; the limit is {MAX_TAIL_ROWS}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("step", ["1e-120", "1e-300"])
    def test_oracle_grid_step_whose_grid_size_overflows_exits_2(self, capsys, step):
        # len(axis) ** 3 overflows a float here, where 1 / step does not
        code, out, err = run(
            capsys, "oracle", "--p", "0.1", "--ps", "0.19", "--target", "energy",
            "--grid-step", step,
        )
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err.splitlines() == [
            f"error: grid_step {float(step)!r} needs inf tail rows at dimension 4; "
            f"the limit is {MAX_TAIL_ROWS}"
        ]


class TestRemovedSurface:
    """No subcommand has ``--config`` or ``--log-base``, ``iterate`` has no
    ``--out`` (its report is its stdout) and no ``--grid-step``, and ``filter``
    has no ``--mode`` (it always runs ``optimal_filter``). Each exits 1 with
    one ``error:`` line and prints nothing to stdout."""

    @pytest.mark.parametrize(
        "removed",
        [
            ["--log-base", "2"],
            ["--log-base", "e"],
            ["--config", "{}/run.cfg"],
            ["--config={}/run.cfg"],
            ["--conf", "{}/run.cfg"],
            ["--config", "{}/run.cfg", "--config", "{}/run.cfg"],
        ],
        ids=["log-base-2", "log-base-e", "config", "config-equals-sign", "config-abbreviated",
             "second-config"],
    )
    @pytest.mark.parametrize("argv", SUBCOMMAND_RUNS, ids=lambda argv: argv[0])
    def test_removed_flag_exits_1(self, capsys, tmp_path, argv, removed):
        (tmp_path / "run.cfg").write_text("p = 0.2\n")
        argv = [token.format(tmp_path) for token in argv]
        removed = [token.format(tmp_path) for token in removed]
        code, out, err = run(capsys, *argv, *removed)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: unrecognized arguments: {' '.join(removed)}\n"
        assert run(capsys, *argv)[0] == EXIT_OK

    def test_iterate_out_writes_no_file(self, capsys, tmp_path):
        path = tmp_path / "report.txt"
        code, out, err = run(capsys, "iterate", "--p", "0.1", "--out", str(path))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: unrecognized arguments: --out {path}\n"
        assert not path.exists()

    def test_iterate_grid_step_exits_1(self, capsys):
        # iterate compares against the exact water-fill optimum; no grid
        code, out, err = run(capsys, "iterate", "--p", "0.1", "--grid-step", "0.04")
        assert code == EXIT_USAGE
        assert out == ""
        assert "--grid-step" in err

    @pytest.mark.parametrize("mode", ["tsallis", "general", "closed-form"])
    def test_mode_exits_1(self, capsys, mode):
        code, out, err = run(
            capsys, "filter", "--p", "0.1", "--ps", "0.3", "--target", "tsallis", "--mode", mode
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "--mode" in err


class TestGridPointLimit:
    def test_oracle_grid_above_the_point_limit_exits_2(self, capsys, tmp_path):
        state_path = tmp_path / "d6.txt"
        state_path.write_text(qstate_to_text(QState.pure(np.linspace(1.0, 2.0, 6))))
        code, out, err = run(
            capsys, "oracle", "--state", str(state_path), "--ps", "0.5", "--target", "energy",
            "--spectrum", "0,1,2,3,4,5", "--grid-step", "0.05",
        )
        assert code == EXIT_DOMAIN
        assert out == ""
        assert f"needs 85766121 grid points at dimension 6; the limit is {MAX_GRID_POINTS}" in err
        assert "Traceback" not in err


def _readme_cli_commands() -> list[list[str]]:
    """The argv of every ``coherence-forge`` command in the README's CLI code
    block, with backslash continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command-line interface", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("coherence-forge "):
            commands.append(shlex.split(line)[1:])
    return commands


class TestReadmeExamples:
    """Every CLI example in the README runs, so a removed flag cannot linger
    in the docs."""

    COMMANDS = _readme_cli_commands()

    def test_block_lists_every_subcommand(self):
        assert {argv[0] for argv in self.COMMANDS} == {
            "filter", "frontier", "mixed-scan", "iterate", "choi", "oracle"
        }

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv[:3]))
    def test_example_runs(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "rho.txt").write_text(
            qstate_to_text(mixed_qubit_product(QubitParams(p=0.2, eta=0.75), 2))
        )
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        if argv[0] in ("iterate", "oracle"):
            assert out.rstrip().endswith("PASS")
