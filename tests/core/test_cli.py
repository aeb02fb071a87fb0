"""CLI tests, driven through main(argv) with captured stdout."""

import pytest

from repro.cli import main

LOOP = """
_start:
    li a0, 0
    li t0, 1
loop:              # @loopbound 10
    add a0, a0, t0
    addi t0, t0, 1
    li t1, 11
    blt t0, t1, loop
    li a7, 93
    ecall
"""

SELF_CHECKING = """
_start:
    li a1, 6
    li a2, 7
    mul a0, a1, a2
    li a3, 42
    bne a0, a3, fail
    li a0, 0
    li a7, 93
    ecall
fail:
    li a0, 1
    li a7, 93
    ecall
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.s"
    path.write_text(LOOP)
    return str(path)


@pytest.fixture
def checked_file(tmp_path):
    path = tmp_path / "checked.s"
    path.write_text(SELF_CHECKING)
    return str(path)


class TestRunCommand:
    def test_run_reports_result(self, program_file, capsys):
        code = main(["run", program_file])
        out = capsys.readouterr().out
        assert code == 55  # guest exit code propagated
        assert "stop: exit" in out
        assert "exit: 55" in out

    def test_run_says_why_every_block_is_interpreted(self, program_file,
                                                    capsys):
        main(["run", program_file, "--backend", "compiled",
              "--jit-threshold", "1"])
        err = capsys.readouterr().err
        jit = next(line for line in err.splitlines()
                   if line.startswith("jit: "))
        assert "method" not in jit
        assert "interpreted" not in jit
        assert not jit.startswith("jit: 0 blocks compiled")
        main(["run", program_file, "--backend", "compiled",
              "--jit-threshold", "1", "--trace", "5"])
        err = capsys.readouterr().err
        # The execution tracer is an instruction hook: nothing compiles,
        # and the jit line names the reason.
        jit = next(line for line in err.splitlines()
                   if line.startswith("jit: "))
        assert jit.startswith("jit: 0 blocks compiled")
        assert jit.endswith("(every block interpreted: an instruction "
                            "hook is attached)")

    def test_run_stats_keeps_blocks_compiled(self, program_file, capsys):
        # Telemetry reads the CPU's counters instead of hooking blocks and
        # memory accesses, so the loop still compiles under --stats.
        main(["run", program_file, "--backend", "compiled", "--stats"])
        err = capsys.readouterr().err
        jit = next(line for line in err.splitlines()
                   if line.startswith("jit: "))
        assert not jit.startswith("jit: 0 blocks compiled")
        assert "every block interpreted" not in jit

    def test_run_with_trace(self, program_file, capsys):
        main(["run", program_file, "--trace", "5"])
        out = capsys.readouterr().out
        assert "last 5 instructions" in out
        assert "ecall" in out

    def test_run_prints_uart(self, tmp_path, capsys):
        path = tmp_path / "uart.s"
        path.write_text("""
        _start:
            li t0, 0x10000000
            li t1, 'Y'
            sb t1, 0(t0)
            li a0, 0
            li a7, 93
            ecall
        """)
        assert main(["run", str(path)]) == 0
        assert "Y" in capsys.readouterr().out

    def test_custom_isa(self, tmp_path, capsys):
        path = tmp_path / "bmi.s"
        path.write_text("""
        _start:
            li a1, 0xFF
            cpop a0, a1
            li a7, 93
            ecall
        """)
        code = main(["run", str(path), "--isa", "rv32im_zbb"])
        assert code == 8

    def test_bad_isa_for_source_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "bad.s"
        path.write_text("_start: cpop a0, a1")
        assert main(["run", str(path), "--isa", "rv32i"]) == 2
        assert "error:" in capsys.readouterr().err


class TestAnalysisCommands:
    def test_disasm(self, program_file, capsys):
        assert main(["disasm", program_file]) == 0
        out = capsys.readouterr().out
        assert "<_start>:" in out
        assert "blt" in out

    def test_wcet(self, program_file, capsys):
        assert main(["wcet", program_file]) == 0
        out = capsys.readouterr().out
        assert "static bound" in out
        assert "annotated loop header" in out

    def test_wcet_emit_cfg(self, program_file, capsys):
        assert main(["wcet", program_file, "--emit-cfg"]) == 0
        assert "qta-cfg v1" in capsys.readouterr().out

    def test_coverage(self, program_file, capsys):
        assert main(["coverage", program_file, "--missed"]) == 0
        out = capsys.readouterr().out
        assert "instruction types" in out
        assert "missed GPRs" in out

    def test_faults(self, checked_file, capsys):
        assert main(["faults", checked_file, "--mutants", "25"]) == 0
        out = capsys.readouterr().out
        assert "golden: exit 0" in out
        assert "mutants/s" in out

    @pytest.mark.parametrize("argv,expected", [
        ([], "compiled"), (["--backend", "interp"], "interp")])
    def test_faults_backend_defaults_to_campaign_backend(
            self, checked_file, capsys, monkeypatch, argv, expected):
        from repro import faultsim

        backends = []
        init = faultsim.FaultCampaign.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            backends.append(self.backend)

        monkeypatch.setattr(faultsim.FaultCampaign, "__init__", spy)
        assert main(["faults", checked_file, "--mutants", "5"] + argv) == 0
        assert backends == [expected]

    def test_faults_help_names_the_campaign_default(self, capsys):
        from repro.faultsim import CAMPAIGN_BACKEND

        with pytest.raises(SystemExit):
            main(["faults", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"default: {CAMPAIGN_BACKEND}, the campaign default" \
            in help_text

    def test_mutate(self, checked_file, capsys):
        assert main(["mutate", checked_file, "--sample", "30"]) == 0
        assert "score" in capsys.readouterr().out


class TestGenCommand:
    def test_gen_torture_assembles(self, capsys):
        assert main(["gen", "torture", "--seed", "5", "--length", "50"]) == 0
        source = capsys.readouterr().out
        from repro.asm import assemble
        from repro.isa import RV32IMC_ZICSR
        assemble(source, isa=RV32IMC_ZICSR)

    def test_gen_structured_has_checksum_header(self, capsys):
        assert main(["gen", "structured", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# expected checksum:")


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["run", "/nonexistent/path.s"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_assembler_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.s"
        path.write_text("_start: frobnicate a0")
        assert main(["disasm", str(path)]) == 2
        assert "unknown mnemonic" in capsys.readouterr().err


class TestWcetFlags:
    def test_icache_flag(self, program_file, capsys):
        from repro.cli import main as cli_main
        assert cli_main(["wcet", program_file,
                         "--icache", "1024:16:2:10"]) == 0
        out = capsys.readouterr().out
        assert "static bound" in out

    def test_icache_with_persistence(self, program_file, capsys):
        from repro.cli import main as cli_main
        assert cli_main(["wcet", program_file, "--icache", "1024:16:2:10",
                         "--cache-analysis"]) == 0

    def test_edge_sensitive_flag_tightens_or_equals(self, program_file,
                                                    capsys):
        from repro.cli import main as cli_main
        assert cli_main(["wcet", program_file, "--edge-sensitive"]) == 0

    def test_bad_icache_spec(self, program_file, capsys):
        from repro.cli import main as cli_main
        assert cli_main(["wcet", program_file, "--icache", "10:2"]) == 2
        assert "SIZE:LINE:WAYS:PENALTY" in capsys.readouterr().err

    def test_gen_arch_suite(self, capsys):
        from repro.cli import main as cli_main
        assert cli_main(["gen", "arch"]) == 0
        out = capsys.readouterr().out
        assert "### arch-arith" in out

    def test_gen_unit_suite(self, capsys):
        from repro.cli import main as cli_main
        assert cli_main(["gen", "unit", "--seed", "1"]) == 0
        assert "### unit-rr" in capsys.readouterr().out


class TestSubmitBackend:
    """``repro submit`` sends ``backend`` only when ``--backend`` is
    given, so the service applies its per-kind default.  The retired
    name ``fastpath`` is sent as the ``interp`` it selects."""

    @pytest.mark.parametrize("argv,expected", [
        ([], None), (["--backend", "fastpath"], "interp")])
    def test_backend_sent_only_when_given(self, checked_file, capsys,
                                          monkeypatch, argv, expected):
        from repro.serve.client import ServiceClient

        sent = []

        def submit(self, kind, payload, **kwargs):
            sent.append(payload)
            return {"id": "job-1", "kind": kind}

        monkeypatch.setattr(ServiceClient, "submit", submit)
        for kind in ("fault_campaign", "vp_run"):
            assert main(["submit", checked_file, "--kind", kind,
                         "--url", "http://127.0.0.1:1"] + argv) == 0
        assert [payload.get("backend") for payload in sent] == \
            [expected, expected]


class TestBackendNames:
    """``--backend`` lists the two backends; ``fastpath`` still parses
    and runs the interpreter."""

    def test_fastpath_alias_runs_like_interp(self, program_file, capsys):
        outputs = []
        for name in ("interp", "fastpath"):
            assert main(["run", program_file, "--backend", name]) == 55
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "stop: exit" in outputs[0]

    @pytest.mark.parametrize("command", ["run", "fuzz", "submit"])
    def test_help_lists_only_the_two_backends(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = capsys.readouterr().out
        assert "{interp,compiled}" in out
        assert "fastpath" not in out

    def test_unknown_backend_names_the_valid_ones(self, program_file,
                                                  capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", program_file, "--backend", "turbo"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown execution backend 'turbo'" in err
        assert "expected one of interp, compiled" in err
