"""Tests for the command-line interface."""

from __future__ import annotations

import http.client
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import build_parser, main
from repro.serving.http import npy_bytes


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_experiment_command_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.command == "table1"
        assert args.scale == "quick"
        assert args.output_dir is None
        # The backend flag defaults to None = "use the config's backend";
        # it only overrides a spec/config choice when explicitly passed.
        assert args.backend is None

    def test_segment_command_options(self):
        args = build_parser().parse_args(
            ["segment", "--dataset", "bbbc005", "--dimension", "500", "--height", "40"]
        )
        assert args.dataset == "bbbc005"
        assert args.dimension == 500
        assert args.height == 40
        assert args.backend is None
        assert args.segmenter == "seghdc"

    def test_backend_with_non_seghdc_segmenter_errors(self):
        with pytest.raises(SystemExit, match="--backend applies only"):
            main(
                [
                    "segment",
                    "--segmenter",
                    "cnn_baseline",
                    "--backend",
                    "packed",
                    "--height",
                    "16",
                    "--width",
                    "20",
                ]
            )

    def test_dimension_with_non_seghdc_segmenter_errors(self):
        with pytest.raises(SystemExit, match="--dimension applies only"):
            main(
                [
                    "segment",
                    "--segmenter",
                    "cnn_baseline",
                    "--dimension",
                    "4000",
                    "--height",
                    "16",
                    "--width",
                    "20",
                ]
            )

    def test_iterations_with_third_party_segmenter_errors(self):
        from repro.api import register_segmenter
        from repro.seghdc import SegHDCConfig, SegHDCEngine

        register_segmenter(
            "thirdparty_test",
            factory=lambda config=None, **kw: SegHDCEngine(config, **kw),
            config_cls=SegHDCConfig,
            overwrite=True,
        )
        try:
            with pytest.raises(SystemExit, match="--iterations applies only"):
                main(
                    [
                        "segment",
                        "--segmenter",
                        "thirdparty_test",
                        "--iterations",
                        "50",
                        "--height",
                        "16",
                        "--width",
                        "20",
                    ]
                )
        finally:
            from repro.api import registry as _registry

            _registry._REGISTRY.pop("thirdparty_test", None)

    def test_config_json_configures_any_segmenter(self, capsys):
        exit_code = main(
            [
                "segment",
                "--segmenter",
                "cnn_baseline",
                "--config-json",
                '{"max_iterations": 2}',
                "--height",
                "16",
                "--width",
                "20",
            ]
        )
        assert exit_code == 0
        assert "IoU=" in capsys.readouterr().out

    def test_config_json_rejects_invalid_json_and_flag_combinations(self):
        with pytest.raises(SystemExit, match="not valid JSON"):
            main(["segment", "--config-json", "{oops"])
        with pytest.raises(SystemExit, match="must be a JSON object"):
            main(["segment", "--config-json", "[1, 2]"])
        with pytest.raises(SystemExit, match="--dimension cannot be combined"):
            main(
                [
                    "segment",
                    "--dimension",
                    "400",
                    "--config-json",
                    '{"dimension": 400}',
                ]
            )

    def test_config_json_bad_field_names_the_field(self):
        with pytest.raises(
            SystemExit, match="^seghdc: error: unknown field.*'dimenson'"
        ):
            main(["segment", "--config-json", '{"dimenson": 400}'])

    def test_config_json_overrides_apply_on_top_of_the_flag_path_base(self):
        """--config-json tweaks fields on the same base the flag path
        builds (paper defaults + beta scaling), not bare dataclass
        defaults."""
        from repro.cli import _segmenter_spec_from_args
        from repro.seghdc import SegHDCConfig

        args = build_parser().parse_args(
            [
                "segment",
                "--dataset",
                "monuseg",
                "--config-json",
                '{"backend": "packed"}',
                "--height",
                "32",
                "--width",
                "40",
            ]
        )
        cfg = _segmenter_spec_from_args(args)["config"]
        expected_base = SegHDCConfig.paper_defaults("monuseg").with_overrides(
            dimension=args.dimension_default,
            num_iterations=args.iterations_default,
        ).scaled_for_shape(32, 40)
        assert cfg["backend"] == "packed"
        assert cfg["num_clusters"] == expected_base.num_clusters
        assert cfg["dimension"] == expected_base.dimension
        assert cfg["beta"] == expected_base.beta
        # An explicit override still wins over the scaled base value.
        args2 = build_parser().parse_args(
            ["segment", "--config-json", '{"beta": 9}']
        )
        assert _segmenter_spec_from_args(args2)["config"]["beta"] == 9

    def test_dimension_default_applies_per_subcommand(self):
        # --dimension is a None sentinel (like --backend) so an explicit
        # value with another segmenter can error; the seghdc defaults still
        # come from each subcommand.
        segment_args = build_parser().parse_args(["segment"])
        assert segment_args.dimension is None
        assert segment_args.dimension_default == 2000
        serve_args = build_parser().parse_args(["serve"])
        assert serve_args.dimension is None
        assert serve_args.dimension_default == 1000

    def test_segmenter_option(self):
        args = build_parser().parse_args(["segment", "--segmenter", "cnn_baseline"])
        assert args.segmenter == "cnn_baseline"
        args = build_parser().parse_args(
            ["serve", "--segmenter", "cnn_baseline"]
        )
        assert args.segmenter == "cnn_baseline"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["segment", "--segmenter", "watershed"])

    def test_run_command_options(self):
        args = build_parser().parse_args(["run", "--spec", "spec.json"])
        assert args.command == "run"
        assert args.spec == "spec.json"
        assert args.output is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])  # --spec is required

    @pytest.mark.parametrize("backend", ["dense", "packed"])
    def test_backend_option(self, backend):
        args = build_parser().parse_args(["segment", "--backend", backend])
        assert args.backend == backend
        args = build_parser().parse_args(["table1", "--backend", backend])
        assert args.backend == backend

    def test_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["segment", "--backend", "gpu"])

    def test_rejects_unknown_scale(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--scale", "huge"])

    def test_serve_mode_options(self):
        args = build_parser().parse_args(
            ["serve", "--mode", "process", "--workers", "2", "--backend", "packed"]
        )
        assert args.command == "serve"
        assert args.mode == "process"
        assert args.workers == 2
        assert args.backend == "packed"

    def test_serve_rejects_unknown_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--mode", "fiber"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("command", ["loadgen", "tile"])
    @pytest.mark.parametrize(
        "url", ["http://127.0.0.1:1", "127.0.0.1:", ":8080", "127.0.0.1"]
    )
    def test_url_must_be_bare_host_port(self, command, url, monkeypatch):
        """A scheme prefix or an empty host/port is a usage error naming
        --url, raised before any connection is attempted."""
        import socket

        def refuse(*args, **kwargs):
            raise AssertionError("a malformed --url opened a connection")

        monkeypatch.setattr(socket, "create_connection", refuse)
        with pytest.raises(SystemExit, match="--url must be HOST:PORT"):
            main([command, "--url", url])


class TestUsageErrors:
    """Out-of-range flags end in one ``seghdc: error:`` line, before any
    port is announced, result folder created or connection opened."""

    @pytest.mark.parametrize(
        "args, match",
        [
            (["--mix", "bad"], "bad shape-mix entry 'bad'"),
            (["--mix", "0x64"], "image shape must be positive"),
            (["--mix", "48x64:0"], "shape weight must be positive"),
            (["--rate", "0"], "rate must be positive"),
            (["--concurrency", "0"], "pool_size must be positive"),
        ],
        ids=["mix-bad", "mix-0x64", "mix-weight-0", "rate-0", "concurrency-0"],
    )
    def test_loadgen(self, args, match, tmp_path, monkeypatch):
        import socket

        def refuse(*args, **kwargs):
            raise AssertionError("a refused flag opened a connection")

        monkeypatch.setattr(socket, "create_connection", refuse)
        out_dir = tmp_path / "results"
        with pytest.raises(SystemExit, match=f"^seghdc: error: {match}"):
            main(
                ["loadgen", "--url", "127.0.0.1:1", "--out-dir", str(out_dir)]
                + args
            )
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "args, match",
        [
            (["--workers", "0"], "num_workers must be positive"),
            (["--max-queue-depth", "0"], "max_queue_depth must be positive"),
            (["--batch-size", "0"], "max_batch_size must be positive"),
            (
                ["--watch-interval", "0", "--watch-spec", "spec.json"],
                "interval must be positive",
            ),
        ],
        ids=["workers-0", "queue-depth-0", "batch-size-0", "watch-interval-0"],
    )
    def test_serve(self, args, match, capsys):
        with pytest.raises(SystemExit, match=f"^seghdc: error: {match}"):
            main(
                ["serve", "--port", "0", "--mode", "thread",
                 "--segmenter", "threshold"] + args
            )
        assert "SEGHDC_SERVE_PORT=" not in capsys.readouterr().out

    def test_cluster(self, capsys):
        with pytest.raises(
            SystemExit, match="^seghdc: error: replicas must be positive"
        ):
            main(["cluster", "--port", "0", "--replicas", "0"])
        assert "SEGHDC_GATEWAY_PORT=" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "args, match",
        [
            (["--height", "0"], "image size must be positive, got 0x160"),
            (["--index", "-1"], "--index must be non-negative, got -1"),
            (
                ["--config-json", '{"dimenson": 400}'],
                "unknown field\\(s\\) 'dimenson' for SegHDCConfig",
            ),
        ],
        ids=["height-0", "index-neg", "config-json-bad-field"],
    )
    def test_segment(self, args, match):
        with pytest.raises(SystemExit, match=f"^seghdc: error: {match}"):
            main(["segment", *args])

    @pytest.mark.parametrize(
        "content, match",
        [
            (None, "\\[Errno 2\\] No such file or directory"),
            ("not json", "--spec .*spec.json is not valid JSON"),
            (
                '{"dataset": "nope"}',
                "field 'dataset' names unknown dataset 'nope'; available: ",
            ),
        ],
        ids=["missing-file", "not-json", "unknown-dataset"],
    )
    def test_run_spec(self, content, match, tmp_path):
        path = tmp_path / "spec.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(SystemExit, match=f"^seghdc: error: {match}"):
            main(["run", "--spec", str(path)])


class TestMain:
    def test_list_output(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "bbbc005" in out
        assert "cnn_baseline" in out and "seghdc" in out

    def test_segment_runs_end_to_end(self, capsys, tmp_path):
        exit_code = main(
            [
                "segment",
                "--dataset",
                "dsb2018",
                "--dimension",
                "300",
                "--iterations",
                "2",
                "--height",
                "40",
                "--width",
                "48",
                "--output-dir",
                str(tmp_path),
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "IoU=" in out
        assert any(path.suffix == ".png" for path in tmp_path.iterdir())

    def test_serve_parser_accepts_http_options(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--port", "0",
                "--mode", "process",
                "--workers", "4",
                "--batch-size", "2",
                "--backend", "packed",
            ]
        )
        assert args.command == "serve"
        assert args.port == 0
        assert args.mode == "process"
        assert args.workers == 4
        assert args.backend == "packed"

    def test_serve_parser_queue_and_reconfig_options(self):
        defaults = build_parser().parse_args(["serve"])
        assert defaults.max_queue_depth == 64
        assert defaults.batch_size is None
        assert defaults.allow_reconfig is False
        args = build_parser().parse_args(
            [
                "serve",
                "--max-queue-depth", "8",
                "--allow-reconfig",
            ]
        )
        assert args.max_queue_depth == 8
        assert args.allow_reconfig is True

    def test_segment_with_cnn_baseline_segmenter(self, capsys):
        exit_code = main(
            [
                "segment",
                "--segmenter",
                "cnn_baseline",
                "--iterations",
                "3",
                "--height",
                "32",
                "--width",
                "40",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "segmenter=cnn_baseline" in out
        assert "IoU=" in out

    def test_run_spec_end_to_end(self, capsys, tmp_path):
        import json

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "segmenter": "seghdc",
                    "config": {"dimension": 300, "num_iterations": 2, "beta": 3},
                    "dataset": "dsb2018",
                    "num_images": 2,
                    "image_shape": [24, 32],
                    "serving": {"mode": "thread", "num_workers": 2},
                }
            )
        )
        out_path = tmp_path / "out" / "result.json"
        assert main(["run", "--spec", str(spec_path), "--output", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "mean IoU=" in out
        payload = json.loads(out_path.read_text())
        assert payload["num_images"] == 2
        assert payload["spec"]["segmenter"] == "seghdc"
        assert len(payload["per_image"]) == 2
        assert payload["serving"]["completed"] == 2

    def test_run_spec_uses_spec_output_field(self, tmp_path, monkeypatch):
        import json

        monkeypatch.chdir(tmp_path)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "segmenter": "cnn_baseline",
                    "config": {"num_features": 8, "num_layers": 1, "max_iterations": 2},
                    "dataset": "dsb2018",
                    "num_images": 1,
                    "image_shape": [16, 20],
                    "output": "results/out.json",
                }
            )
        )
        assert main(["run", "--spec", str(spec_path)]) == 0
        payload = json.loads((tmp_path / "results" / "out.json").read_text())
        assert payload["spec"]["segmenter"] == "cnn_baseline"
        assert "serving" not in payload  # serial run: no server stats

    def test_segment_with_packed_backend(self, capsys):
        exit_code = main(
            [
                "segment",
                "--dataset",
                "dsb2018",
                "--dimension",
                "300",
                "--iterations",
                "2",
                "--height",
                "32",
                "--width",
                "40",
                "--backend",
                "packed",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "backend=packed" in out


class TestServeShutdown:
    def test_sigterm_stops_a_process_mode_serve_and_its_workers(self):
        """SIGTERM (docker stop, CI teardown) shuts `seghdc serve --mode
        process` down like Ctrl-C: the command exits 0, and its stdout
        reaches EOF, so no worker process outlives it holding the pipe."""
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0",
                "--mode", "process",
                "--workers", "2",
                "--segmenter", "threshold",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,
        )
        try:
            port = None
            for line in process.stdout:
                match = re.match(r"SEGHDC_SERVE_PORT=(\d+)", line)
                if match:
                    port = int(match.group(1))
                    break
            assert port, "serve never printed its port"
            # One request makes the pool start its worker processes.
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
            image = np.arange(16 * 16, dtype=np.uint8).reshape(16, 16)
            connection.request(
                "POST",
                "/v1/segment",
                body=npy_bytes(image),
                headers={"Content-Type": "application/octet-stream"},
            )
            assert connection.getresponse().status == 200
            connection.close()
            process.send_signal(signal.SIGTERM)
            output, _ = process.communicate(timeout=60)
        finally:
            # The server's process group holds its workers too: a failed run
            # must not leave them behind.
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            if process.poll() is None:
                process.communicate()
        assert process.returncode == 0, output
        assert "shutting down" in output


class TestTileCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["tile"])
        assert args.tile == "128x128"
        assert args.runner == "serial"
        assert args.check_parity is False

    def test_tile_serial_with_parity(self, capsys):
        code = main(
            [
                "tile",
                "--height", "96", "--width", "96",
                "--tile", "48x48",
                "--spacing", "32",
                "--dimension", "1024",
                "--iterations", "10",
                "--check-parity",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "parity vs direct whole-image run: BIT-EXACT" in out
        assert "2x2 tiles of 48x48" in out

    def test_tile_threshold_base_via_config_json(self, capsys):
        code = main(
            [
                "tile",
                "--height", "64", "--width", "64",
                "--tile", "32x32",
                "--base", "threshold",
                "--spacing", "32",
            ]
        )
        assert code == 0
        assert "stitched:" in capsys.readouterr().out

    def test_seghdc_flags_rejected_for_other_bases(self):
        with pytest.raises(SystemExit, match="seghdc base"):
            main(["tile", "--base", "threshold", "--dimension", "256"])

    def test_bad_tile_shape_errors(self):
        with pytest.raises(SystemExit, match="--tile must be HxW"):
            main(["tile", "--tile", "64by64"])

    def test_server_runner_overlap_and_8_connectivity(self, capsys):
        code = main(
            [
                "tile",
                "--height", "96", "--width", "96",
                "--tile", "48x48",
                "--overlap", "8",
                "--connectivity", "8",
                "--spacing", "32",
                "--dimension", "1024",
                "--runner", "server",
                "--workers", "2",
                "--check-parity",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "parity vs direct whole-image run: BIT-EXACT" in out
        assert "connectivity=8" in out
        assert "runner=server:2" in out

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_server_runner_refuses_non_positive_workers(self, workers):
        with pytest.raises(SystemExit, match="--workers must be positive"):
            main(["tile", "--runner", "server", "--workers", workers])

    @pytest.mark.parametrize("flag", ["--height", "--width"])
    def test_refuses_non_positive_image_size(self, flag):
        with pytest.raises(
            SystemExit, match="^seghdc: error: image size must be positive"
        ):
            main(["tile", flag, "0"])

    @pytest.mark.parametrize(
        "args, match",
        [
            (["--tile", "0x64"], "tile_height must be positive"),
            (["--overlap", "-1"], "overlap must be non-negative"),
            (
                ["--overlap", "200", "--tile", "128x128"],
                "overlap 200 must be smaller than the tile shape",
            ),
            (["--spacing", "0"], "spacing must be at least 4"),
        ],
        ids=["tile-0x64", "overlap-neg", "overlap-200", "spacing-0"],
    )
    def test_refuses_out_of_range_arguments_in_one_line(self, args, match):
        with pytest.raises(SystemExit, match=f"^seghdc: error: {match}"):
            main(["tile", "--height", "96", "--width", "96", *args])

