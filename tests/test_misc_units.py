"""Smaller units: runtime internals, stats records, weaving helpers,
session accounting, error hierarchy."""

import pytest

from repro.analysis.qualified_conditions import Strength
from repro.core.config import DetectionMethod, ResponseKind
from repro.core.stats import Bomb, BombOrigin, InstrumentationReport
from repro.core.weaving import (
    EPILOGUE_LABEL,
    map_registers,
    prepare_woven_body,
    referenced_registers,
    rename_labels,
)
from repro.dex import DexClass, DexFile, Label, assemble, assemble_method
from repro.dex import instructions as ins
from repro.dex.opcodes import Op
from repro.errors import (
    AnalysisError,
    ApkError,
    AttackError,
    CryptoError,
    DexError,
    InstrumentationError,
    ReproError,
    SolverError,
    UnsolvableConstraint,
    VMCrash,
    VMError,
)
from repro.vm import Runtime
from repro.vm.runtime import BombRegistry


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [CryptoError, DexError, VMError, ApkError, AnalysisError,
         InstrumentationError, AttackError],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_unsolvable_is_solver_error(self):
        assert issubclass(UnsolvableConstraint, SolverError)
        assert issubclass(VMCrash, VMError)


class TestBombRegistry:
    def _registry(self):
        dex = assemble(".class A\n.method on_back 0\nreturn_void\n.end")
        return Runtime(dex).bombs

    def test_counts_and_first_times(self):
        registry = self._registry()
        registry.record("b1", "evaluated")
        registry.record("b1", "evaluated")
        registry.record("b2", "outer_satisfied")
        assert registry.counts["b1"]["evaluated"] == 2
        assert registry.count("evaluated") == 2
        assert registry.bombs_with("outer_satisfied") == {"b2"}
        assert registry.first_time_of("evaluated") is not None
        assert registry.first_time_of("never") is None

    def test_merge_keeps_earliest_first_times(self):
        a = self._registry()
        b = self._registry()
        a._device.clock = 100.0
        a.record("b1", "inner_met")
        b._device.clock = 5.0
        b.record("b1", "inner_met")
        a.merge_from(b)
        assert a.first_by_bomb[("b1", "inner_met")] == 5.0
        assert a.counts["b1"]["inner_met"] == 2


class TestRuntimeInternals:
    def test_dynamic_blob_caching(self):
        from repro.dex.serializer import serialize_dex

        host = assemble(".class A\n.method on_back 0\nreturn_void\n.end")
        runtime = Runtime(host)
        payload = assemble(".class P\n.method run 1\nreturn r0\n.end")
        blob = serialize_dex(payload)
        first = runtime.load_blob_method(blob, "P.run")
        second = runtime.load_blob_method(blob, "P.run")
        assert first is second  # cached by digest

    def test_corrupt_blob_crashes_cleanly(self):
        host = assemble(".class A\n.method on_back 0\nreturn_void\n.end")
        runtime = Runtime(host)
        with pytest.raises(VMCrash, match="corrupt payload"):
            runtime.load_blob_method(b"garbage-not-a-dex", "P.run")

    def test_sput_to_unknown_field_crashes(self):
        host = assemble(".class A\n.field x static 0\n.method on_back 0\nreturn_void\n.end")
        runtime = Runtime(host)
        with pytest.raises(VMCrash):
            runtime.sput("A.ghost", 1)

    def test_statics_initialized_from_fields(self):
        host = assemble(".class A\n.field x static 41\n.method on_back 0\nreturn_void\n.end")
        runtime = Runtime(host)
        assert runtime.sget("A.x") == 41

    def test_boot_runs_every_main(self):
        source = """
        .class A
        .field x static 0
        .method main 0
            const r0, 1
            sput r0, A.x
            return_void
        .end
        .class B
        .field y static 0
        .method main 0
            const r0, 2
            sput r0, B.y
            return_void
        .end
        """
        runtime = Runtime(assemble(source))
        runtime.boot()
        assert runtime.statics["A.x"] == 1
        assert runtime.statics["B.y"] == 2


class TestWeavingHelpers:
    def test_referenced_registers(self):
        body = [ins.binop(Op.ADD, 3, 1, 2), ins.sput(3, "A.x")]
        assert referenced_registers(body) == {1, 2, 3}

    def test_map_registers_covers_args(self):
        instr = ins.invoke(5, "A.m", (1, 2))
        mapped = map_registers(instr, {5: 10, 1: 11, 2: 12})
        assert mapped.dst == 10
        assert mapped.args == (11, 12)

    def test_unmapped_register_rejected(self):
        with pytest.raises(InstrumentationError):
            map_registers(ins.move(1, 2), {1: 5})

    def test_exit_jump_goes_to_epilogue(self):
        instr = ins.goto("join")
        renamed = rename_labels(instr, {}, "join")
        assert renamed.target == EPILOGUE_LABEL

    def test_unknown_internal_target_rejected(self):
        with pytest.raises(InstrumentationError):
            rename_labels(ins.goto("elsewhere"), {}, "join")

    def test_prepare_woven_body_renames_consistently(self):
        body = [
            Label("top"),
            ins.if_eqz(0, "top"),
            ins.goto("exit"),
        ]
        woven = prepare_woven_body(body, "exit", {0: 1}, "w_")
        assert woven[0].value == "w_top"
        assert woven[1].target == "w_top"
        assert woven[2].target == EPILOGUE_LABEL


class TestReportModel:
    def _bomb(self, origin, strength, bomb_id="b1"):
        return Bomb(
            bomb_id=bomb_id,
            method="A.m",
            origin=origin,
            strength=strength,
            const_value=1,
            salt_hex="00" * 12,
            hc_hex="00" * 20,
            payload_class=f"Bomb${bomb_id}",
            woven=False,
            detection=DetectionMethod.PUBLIC_KEY,
            response=ResponseKind.CRASH,
        )

    def test_histograms_and_counts(self):
        report = InstrumentationReport(app_name="X")
        report.bombs = [
            self._bomb(BombOrigin.EXISTING, Strength.WEAK, "b1"),
            self._bomb(BombOrigin.EXISTING, Strength.STRONG, "b2"),
            self._bomb(BombOrigin.ARTIFICIAL, Strength.MEDIUM, "b3"),
            self._bomb(BombOrigin.BOGUS, Strength.MEDIUM, "b4"),
        ]
        assert report.total_injected == 3          # bogus excluded
        assert report.count_by_origin(BombOrigin.BOGUS) == 1
        histogram = report.strength_histogram()
        assert histogram[Strength.MEDIUM] == 1     # bogus not counted
        assert report.strength_histogram(BombOrigin.EXISTING)[Strength.WEAK] == 1

    def test_bomb_lookup(self):
        report = InstrumentationReport(app_name="X")
        bomb = self._bomb(BombOrigin.EXISTING, Strength.WEAK)
        report.bombs = [bomb]
        assert report.bomb_by_id("b1") is bomb
        with pytest.raises(KeyError):
            report.bomb_by_id("zzz")

    def test_size_increase_zero_safe(self):
        report = InstrumentationReport(app_name="X")
        assert report.size_increase == 0.0


class TestDisassemblerCompleteness:
    def test_every_opcode_formats(self):
        """format_instr must handle every opcode the assembler can emit."""
        from repro.dex.disassembler import format_instr

        samples = [
            ins.const(0, 1), ins.move(0, 1),
            ins.binop(Op.ADD, 0, 1, 2), ins.binop_lit(Op.ADD_LIT, 0, 1, 5),
            ins.goto("x"), ins.if_eq(0, 1, "x"), ins.if_eqz(0, "x"),
            ins.switch(0, {1: "x"}), ins.ret(0), ins.ret_void(), ins.throw(0),
            ins.new_instance(0, "C"), ins.iget(0, 1, "f"), ins.iput(0, 1, "f"),
            ins.sget(0, "C.f"), ins.sput(0, "C.f"),
            ins.new_array(0, 1), ins.aget(0, 1, 2), ins.aput(0, 1, 2),
            ins.array_len(0, 1), ins.invoke(None, "C.m", (0,)), Label("x"),
            ins.Instr(Op.NOP), ins.Instr(Op.NEG, dst=0, a=1),
            ins.Instr(Op.NOT, dst=0, a=1), ins.binop(Op.CMP, 0, 1, 2),
        ]
        for instr in samples:
            assert isinstance(format_instr(instr), str)
