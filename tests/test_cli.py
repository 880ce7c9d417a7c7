"""Command-line verbs, exit codes, and output plumbing."""

import contextlib
import hashlib
import io
import itertools
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from multihop import cli, harness, packetsim
from multihop.harness import DEFAULTS, EngineMismatchError, load_config
from test_harness import assert_csv_cells_match


class TestVerbs:
    def test_layout_prints_positions_and_distances(self, capsys):
        assert cli.main(["layout", "--streams", "1", "--nodes-per-stream", "4"]) == 0
        out = capsys.readouterr().out
        assert "stream 1 node 4" in out
        assert "distance matrix" in out

    def test_capacity_reports_bottlenecks_and_events(self, capsys):
        code = cli.main(
            ["capacity", "--mode", "TR", "--z", "3", "--streams", "1",
             "--nodes-per-stream", "6", "--hops", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "capacity=" in out
        assert "2<-1" in out

    def test_simulate_trace_shows_the_coded_exchange(self, capsys):
        code = cli.main(
            ["simulate", "--mode", "NC", "--z", "4", "--hops", "4", "--trace"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "delivery rate 1/2 per slot" in out
        assert "A->5 L=4" in out

    def test_simulate_writes_trace_csv(self, tmp_path, capsys):
        target = tmp_path / "trace.csv"
        code = cli.main(
            ["simulate", "--mode", "TR", "--z", "2", "--hops", "3",
             "--trace-csv", str(target)]
        )
        assert code == 0
        assert target.read_text().startswith("slot,scheduled,")

    def test_sweep_to_stdout(self, capsys):
        code = cli.main(
            ["sweep", "--streams", "1", "--nodes-per-stream", "5",
             "--hop-counts", "2,3", "--z-values", "2,3", "--modes", "TR"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("streams,mode,hops,z,")
        assert len(lines) == 1 + 4

    def test_sweep_to_file(self, tmp_path, capsys):
        target = tmp_path / "rows.csv"
        code = cli.main(
            ["sweep", "--streams", "1", "--nodes-per-stream", "5",
             "--hop-counts", "2,3", "--z-values", "2,3", "--output", str(target)]
        )
        assert code == 0
        cfg = dict(DEFAULTS, num_streams=1, nodes_per_stream=5, hop_counts=(2, 3), z_values=(2, 3))
        rows = harness.run_sweep(harness.spec_from_config(cfg))
        assert len(rows) == 8
        assert_csv_cells_match(target.read_text(encoding="utf-8"), rows)

    def test_config_file_feeds_the_run(self, tmp_path, capsys):
        cfg = tmp_path / "one.cfg"
        cfg.write_text("num_streams = 1\nnodes_per_stream = 4\nhop_counts = 2,3\nz_values = 2,3\n")
        assert cli.main(["sweep", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 8

    def test_config_file_with_a_byte_order_mark(self, tmp_path, capsys):
        text = "num_streams = 1\nnodes_per_stream = 4\n"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(text, encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert load_config(str(marked)) == load_config(str(plain))
        outs = []
        for cfg in (plain, marked):
            assert cli.main(["layout", "--config", str(cfg)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and "1 stream(s) x 4 nodes" in outs[0]

    def test_table4_summarizes_the_comparison(self, capsys):
        assert cli.main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "optimum-Z matches" in out
        assert "NC over TR improvement" in out

    # sha256 of the ``capacity`` stdout for Z 2..5, each under --tr-phase same then opposite
    CAPACITY_STDOUT_SHA256 = {
        ("TR", "1"): "82a945f96904f23ec828000543f075c84f46790c04ac153599acfae82f733ee9",
        ("TR", "2"): "8405425f5fb4f1e429e89c139e4faf84ed6c4bafda9d42142ff98a60d0e88bda",
        ("NC", "1"): "ad9667688c2c0b76e7a09ee7f0768ce2fc4310c97884611afa1e7203efe0bcf1",
        ("NC", "2"): "c3ba506a5270ad0287b91cd7bd36379084a7134a6787ec52f0a752a0c7968e72",
    }

    @pytest.mark.parametrize("mode,streams", sorted(CAPACITY_STDOUT_SHA256))
    def test_capacity_stdout_is_pinned(self, mode, streams, capsys):
        digest = hashlib.sha256()
        for z in ("2", "3", "4", "5"):
            for phase in ("same", "opposite"):
                argv = ["capacity", "--mode", mode, "--z", z, "--tr-phase", phase, "--streams", streams]
                assert cli.main(argv) == 0
                out, err = capsys.readouterr()
                assert err == "", argv
                digest.update(out.encode())
        assert digest.hexdigest() == self.CAPACITY_STDOUT_SHA256[(mode, streams)]

    # sha256 of the ``sweep`` CSV on stdout, taken before the CSV went through one text buffer
    SWEEP_STDOUT_SHA256 = {
        (): "03ee667f5a715c850cf19ea4e62175179af04cd6312937eee517a3d0394e95ee",
        ("--streams", "1"): "23aa4d43c40b959904b612b69ab14102ed431fa82b6e7b5fc76d98ec483acfca",
    }

    @pytest.mark.parametrize("flags", sorted(SWEEP_STDOUT_SHA256), ids=["default", "streams-1"])
    def test_sweep_stdout_is_pinned(self, flags, capsys):
        assert cli.main(["sweep", *flags]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == self.SWEEP_STDOUT_SHA256[flags]

    TABLE4_ALT_STDOUT_SHA256 = "dd8126e9618e12d0c9cd6c2bb218141d9ac959b85101b8cca6918fbc721b88d1"
    TABLE4_ALT_CSV_SHA256 = "370779fedb66f1004e8278d12de6022d29c342b521a8ef0512f84646bcd86e14"

    def test_table4_alt_stdout_and_csv_are_pinned(self, tmp_path, capsys):
        assert cli.main(["table4", "--alt"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == self.TABLE4_ALT_STDOUT_SHA256
        target = tmp_path / "rows.csv"
        assert cli.main(["table4", "--alt", "--output", str(target)]) == 0
        assert capsys.readouterr().out == out + "\nwrote 64 rows to %s\n" % target
        assert hashlib.sha256(target.read_bytes()).hexdigest() == self.TABLE4_ALT_CSV_SHA256


class TestExitCodes:
    def test_missing_config_file(self, capsys):
        assert cli.main(["sweep", "--config", "/no/such.cfg"]) == 1

    def test_unknown_flag_is_usage_error_not_two(self, capsys):
        assert cli.main(["sweep", "--not-a-flag"]) == 1

    def test_bad_mode_value(self, capsys):
        assert cli.main(["capacity", "--mode", "QQ", "--z", "3"]) == 1

    def test_hops_beyond_layout(self, capsys):
        for hops in ("9", "5", "1", "0", "-1"):
            assert cli.main(["capacity", "--mode", "TR", "--z", "3", "--hops", hops]) == 1
            assert capsys.readouterr().err == "error: --hops must be between 2 and 4 for 5-node rows, got %s\n" % hops

    @pytest.mark.parametrize("hops", ["1", "0", "-1"])
    def test_simulate_with_too_few_hops(self, hops, capsys):
        assert cli.main(["simulate", "--mode", "NC", "--z", "3", "--hops", hops]) == 1
        assert capsys.readouterr().err == "error: --hops must be at least 2, got %s\n" % hops

    @pytest.mark.parametrize(
        "argv",
        [
            ["capacity", "--mode", "TR", "--z", "3", "--streams", "1"],
            ["sweep", "--streams", "1", "--hop-counts", "2", "--z-values", "2"],
        ],
    )
    def test_layout_size_warning_is_one_line(self, argv, capsys):
        assert cli.main(argv + ["--nodes-per-stream", "8"]) == 0
        assert capsys.readouterr().err == (
            "warning: layout has 8 nodes per stream, outside the validated range (max 6)\n"
        )

    @pytest.mark.parametrize("hops", [[], ["--hops", "3"]], ids=["default-hops", "hops-3"])
    def test_simulate_rejects_rows_below_three_nodes(self, hops, capsys):
        assert cli.main(["simulate", "--mode", "TR", "--z", "3", "--nodes-per-stream", "2"] + hops) == 1
        assert capsys.readouterr().err == "error: nodes_per_stream must be at least 3, got 2\n"

    def test_capacity_rejects_hops_before_the_size_warning(self, capsys):
        argv = ["capacity", "--mode", "TR", "--z", "3", "--nodes-per-stream", "8", "--hops"]
        assert cli.main(argv + ["9"]) == 1
        assert capsys.readouterr().err == "error: --hops must be between 2 and 7 for 8-node rows, got 9\n"
        assert cli.main(argv + ["7"]) == 0
        assert capsys.readouterr().err == (
            "warning: layout has 8 nodes per stream, outside the validated range (max 6)\n"
        )

    def test_invalid_z(self, capsys):
        assert cli.main(["simulate", "--mode", "TR", "--z", "1", "--hops", "3"]) == 1

    def test_engine_mismatch_maps_to_two(self, monkeypatch, capsys):
        def boom(spec):
            raise EngineMismatchError("forced for the test")

        monkeypatch.setattr(cli, "run_sweep", boom)
        assert cli.main(["sweep", "--streams", "1", "--nodes-per-stream", "4",
                         "--hop-counts", "2,3", "--z-values", "2,3"]) == 2

    @pytest.mark.parametrize("verb", [["sweep"], ["capacity", "--mode", "NC", "--z", "3"]])
    def test_overflowing_radio_is_an_input_error_not_a_mismatch(self, verb, capsys):
        assert cli.main(verb + ["--tx-gain", "1e200", "--rx-gain", "1e200"]) == 1
        err = capsys.readouterr().err
        assert "SINR is nan" in err and "mismatch" not in err

    def test_an_infinite_power_off_the_air_is_no_overflow(self, capsys):
        # rows 0.5 m apart: facing nodes' power is inf, but they are never on air together
        assert cli.main(["capacity", "--mode", "TR", "--z", "3", "--hops", "4", "--row-separation-m", "0.5",
                         "--tx-power-w", "1e300", "--tx-gain", "7e11"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "verb",
        [["layout"], ["capacity", "--mode", "TR", "--z", "3"], ["sweep"]],
        ids=["layout", "capacity", "sweep"],
    )
    def test_overflowing_layout_is_rejected_before_any_arithmetic(self, verb, capsys):
        assert cli.main(verb + ["--hop-length-m", "1e308"]) == 1
        assert capsys.readouterr().err == (
            "error: hop_length_m 1e+308 and row_separation_m 300.0 put the farthest nodes beyond float range\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--noise-figure-db", "4000"],
            ["capacity", "--mode", "TR", "--z", "4", "--streams", "1", "--noise-figure-db", "-4000"],
            ["sweep", "--temperature-k", "1e300", "--bandwidth-hz", "1e300"],
        ],
    )
    def test_noise_floor_out_of_range_is_an_input_error(self, argv, capsys):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: noise floor") and "SINR" not in err

    @pytest.mark.parametrize("periods", ["2", "0", "-3"])
    def test_simulate_with_too_few_periods(self, periods, capsys):
        argv = ["simulate", "--mode", "TR", "--z", "3", "--hops", "3", "--periods", periods]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if int(periods) < 1:
            assert err == "error: --periods must be at least 1, got %s\n" % periods

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["table4", "--output", "-"], "--output"),
            (["simulate", "--mode", "NC", "--z", "3", "--trace-csv", "-"], "--trace-csv"),
        ],
        ids=["table4", "simulate"],
    )
    def test_dash_is_not_a_file_path(self, argv, flag, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("ran before the output path was checked")

        for name in ("table4_rows", "run_tr_sim", "run_nc_sim"):
            monkeypatch.setattr(cli, name, refuse)
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", "error: %s must name a file, not '-': only sweep writes CSV to stdout\n" % flag)
        assert list(tmp_path.iterdir()) == []

    def test_out_of_memory_is_one_error_line(self, monkeypatch, capsys):
        def exhausted(config):
            raise MemoryError("Unable to allocate 596. GiB for an array with shape (200000, 200000, 2)")

        monkeypatch.setattr(cli, "build_layout", exhausted)
        assert cli.main(["layout", "--nodes-per-stream", "100000"]) == 1
        assert capsys.readouterr().err == (
            "error: Unable to allocate 596. GiB for an array with shape (200000, 200000, 2)\n"
        )

    def test_simulate_rejects_a_run_too_large_before_planning_it(self, monkeypatch, capsys):
        # unguarded, this run was killed for memory on a 7 GB machine
        def refuse(*args, **kwargs):
            raise AssertionError("a run was planned")

        monkeypatch.setattr(packetsim, "slot_plan", refuse)
        assert cli.main(["simulate", "--mode", "NC", "--z", "3", "--hops", "1000000000", "--periods", "1"]) == 1
        assert capsys.readouterr().err == (
            "error: run too large: it could keep 920 GB at nodes=1000000001 z=3 periods=1, "
            "over the 2.15 GB limit\n"
        )

    def test_simulate_runs_a_huge_period(self, capsys):
        assert cli.main(["simulate", "--mode", "TR", "--z", "1000000000", "--hops", "4"]) == 0
        assert capsys.readouterr() == (
            "TR nodes=5 z=1000000000: delivery rate 1/1000000000 per slot, latency forward 4, reverse 4\n", ""
        )

    def test_simulate_refuses_a_trace_too_large_before_replaying_it(self, monkeypatch, capsys):
        engine, runs = packetsim._engine, []

        def once(*args):  # the run plays the engine; a replay of its 7e9 slots must not start
            if runs:
                raise AssertionError("the trace was replayed")
            runs.append(args)
            return engine(*args)

        monkeypatch.setattr(packetsim, "_engine", once)
        assert cli.main(["simulate", "--mode", "TR", "--z", "1000000000", "--hops", "4", "--trace"]) == 1
        assert capsys.readouterr().err == (
            "error: trace too large: slots 1..7000000004 could take 2.8e+03 GB at nodes=5 z=1000000000, "
            "over the 2.15 GB limit\n"
        )

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0

    @pytest.mark.parametrize(
        "argv",
        [["layout"], ["simulate", "--mode", "TR", "--z", "2", "--hops", "40", "--trace"]],
        ids=["layout", "simulate-trace"],
    )
    def test_closed_stdout_exits_quietly(self, argv, monkeypatch, capsys):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "argv",
        [["layout"], ["simulate", "--mode", "TR", "--z", "2", "--hops", "40", "--trace"]],
        ids=["layout", "simulate-trace"],
    )
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_process_whose_reader_is_gone_exits_quietly(self, argv, unbuffered):
        # with the read end closed first, every write to the pipe fails, as
        # under `multihop layout | head -1` once head has exited; a buffered
        # stdout fails only in the flush before exit
        read, write = os.pipe()
        os.close(read)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        try:
            proc = subprocess.run([sys.executable, "-m", "multihop"] + argv, stdout=write, stderr=subprocess.PIPE, env=env)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, b"")


EDGE_VALUES = ["0", "1", "-1", "nan", "inf", "-inf", "1e308", "1e-300", "", ",", "-", "2,,3"]
SIZES = st.integers(0, 64).map(str)
# the layout limit is 9458 nodes over all streams, so rows of 9459 nodes or more are past it at
# either stream count; 4730 is past it only for two streams, and a layout under the limit could
# take about 2 GB to build, so neither is drawn (an example below gives 4730 with two streams)
ROWS = SIZES | st.integers(9459, 9468).map(str)
VALUES = {  # a flag's in-range values, drawn beside the edge values
    "nodes_per_stream": ROWS,
    "z_values": SIZES,
    "hop_counts": SIZES,
    "modes": st.sampled_from(["TR", "NC", "TR,NC"]),
    "tr_phase": st.sampled_from(["same", "opposite"]),
}
OPTIONS = {  # each verb's flags beyond --config and its config keys; None marks a switch
    "layout": {},
    "capacity": {"hops": SIZES},
    "simulate": {"hops": SIZES, "periods": SIZES, "trace": None, "trace_csv": st.just("out.csv")},
    "sweep": {"output": st.just("out.csv")},
    "table4": {"alt": None, "output": st.just("out.csv")},
}
REQUIRED = {verb: {"mode": st.sampled_from(["TR", "NC"]), "z": SIZES} for verb in ("capacity", "simulate")}


@st.composite
def command_lines(draw):
    """A verb with its required flags and up to four more of its own, each as
    ``--flag value`` or ``--flag=value``, and the text of ``out.cfg``: up to
    three of the verb's keys, a key maybe repeated, the whole maybe led by a
    byte order mark. At most one value, of a flag or a key, is an edge value
    and the others are in range, so a line can get past its first bad value."""
    verb = draw(st.sampled_from(sorted(OPTIONS)))
    flags = {key: VALUES.get(key, st.just(str(DEFAULTS[key]))) for key in cli.VERB_KEYS[verb]}
    if verb == "simulate":  # builds no layout, so a row past its limit would be simulated
        flags["nodes_per_stream"] = SIZES
    # a line draws at most 11 values: 4 keys, --config, 2 required flags and 4 more
    drawn, edge = itertools.count(), draw(st.none() | st.integers(0, 10))  # which one is an edge value

    def value(values):
        return draw(st.sampled_from(EDGE_VALUES) if next(drawn) == edge else values)

    keys = draw(st.lists(st.sampled_from(sorted(flags)), max_size=3))
    keys += keys[:1] if draw(st.booleans()) else []
    config = draw(st.sampled_from(["", "\ufeff"])) + "".join(["%s = %s\n" % (key, value(flags[key])) for key in keys])
    flags.update(OPTIONS[verb])
    argv = [verb] + (["--config", value(st.just("out.cfg"))] if draw(st.booleans()) else [])
    for name, values in REQUIRED.get(verb, {}).items():
        argv += ["--" + name, value(values)]
    for key in draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=4)):
        flag = "--" + cli._FLAG_ALIASES.get(key, key).replace("_", "-")
        if flags[key] is None:
            argv.append(flag)
            continue
        argv += ["%s=%s" % (flag, value(flags[key]))] if draw(st.booleans()) else [flag, value(flags[key])]
    return argv, config


@settings(max_examples=150, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=command_lines())
@example(case=(["layout", "--streams", "1", "--nodes-per-stream", "9459"], ""))
@example(case=(["sweep", "--config", "out.cfg"], "\ufeffnodes_per_stream = 4730\n"))
@example(case=(["capacity", "--mode", "NC", "--z", "3", "--config", "out.cfg"], "num_streams = 1\nnum_streams = 2\n"))
def test_every_command_line_exits_0_or_1_with_one_error_line(case):
    """In process through ``cli.main``: no exception escapes, and an exit of 1
    prints exactly one ``error:`` line, last, after any ``warning:`` lines.
    The config file and the files the run writes are in a fresh directory."""
    argv, config = case
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.chdir(tmp)  # not contextlib.chdir, which needs Python 3.11
        try:
            with open("out.cfg", "w", encoding="utf-8") as fh:
                fh.write(config)
            code = cli.main(argv)
        finally:
            os.chdir(cwd)
    lines = err.getvalue().splitlines()
    assert code in (0, 1), (argv, code, lines)
    errors = [line for line in lines if line.startswith("error: ")]
    assert errors == (lines[-1:] if code == 1 else []), (argv, lines)
    assert all(line.startswith("warning: ") for line in lines[: len(lines) - len(errors)]), (argv, lines)
