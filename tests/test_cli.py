"""Command-line verbs, exit codes, and output plumbing."""

import pytest

from multihop import cli
from multihop.harness import EngineMismatchError, read_csv


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
        rows = read_csv(str(target))
        assert len(rows) == 8

    def test_config_file_feeds_the_run(self, tmp_path, capsys):
        cfg = tmp_path / "one.cfg"
        cfg.write_text("num_streams = 1\nnodes_per_stream = 4\nhop_counts = 2,3\nz_values = 2,3\n")
        assert cli.main(["sweep", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 8

    def test_table4_summarizes_the_comparison(self, capsys):
        assert cli.main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "optimum-Z matches" in out
        assert "NC over TR improvement" in out


class TestExitCodes:
    def test_missing_config_file(self, capsys):
        assert cli.main(["sweep", "--config", "/no/such.cfg"]) == 1

    def test_unknown_flag_is_usage_error_not_two(self, capsys):
        assert cli.main(["sweep", "--not-a-flag"]) == 1

    def test_bad_mode_value(self, capsys):
        assert cli.main(["capacity", "--mode", "QQ", "--z", "3"]) == 1

    def test_hops_beyond_layout(self, capsys):
        assert cli.main(["capacity", "--mode", "TR", "--z", "3", "--hops", "9"]) == 1

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

    @pytest.mark.parametrize("periods", ["2", "0"])
    def test_simulate_with_too_few_periods(self, periods, capsys):
        argv = ["simulate", "--mode", "TR", "--z", "3", "--hops", "3", "--periods", periods]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
