"""The top-level ecosystem facade.

:class:`Ecosystem` ties the virtual prototype and the analysis tools
together behind one object, mirroring how the Scale4Edge project positions
its components: one RISC-V configuration, one VP, and the tool ring
(coverage, WCET/QTA, fault injection, test generation) around it.

    eco = Ecosystem.for_isa("rv32imc_zicsr")
    program = eco.build(source)
    result = eco.run(program)
    wcet = eco.analyze_wcet(source)
    coverage = eco.measure_coverage(program)
    campaign = eco.fault_campaign(program)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..asm import Assembler, Program
from ..coverage import CoverageReport, SuiteCoverage, measure_coverage, measure_suite
from ..faultsim import (
    CampaignResult,
    Fault,
    FaultCampaign,
    MutantBudget,
    generate_mutants,
)
from ..isa.decoder import Decoder, IsaConfig, RV32IMC_ZICSR
from ..testgen import (
    ArchSuiteGenerator,
    StructuredGenerator,
    TortureConfig,
    TortureGenerator,
    UnitSuiteGenerator,
)
from ..vp.cpu import RunResult
from ..vp.machine import Machine, MachineConfig
from ..vp.timing import TimingModel
from ..wcet import QtaAnalysis, analyze_program


class Ecosystem:
    """One ISA configuration plus every tool of the ecosystem."""

    def __init__(self, isa: IsaConfig = RV32IMC_ZICSR,
                 timing: Optional[TimingModel] = None) -> None:
        self.isa = isa
        self.timing = timing or TimingModel()
        self.decoder = Decoder(isa)
        self.assembler = Assembler(isa)

    @classmethod
    def for_isa(cls, name: str, **kwargs) -> "Ecosystem":
        """Construct from an ISA string like ``rv32imc_zicsr``."""
        return cls(IsaConfig.from_string(name), **kwargs)

    # -- build & run ----------------------------------------------------------

    def build(self, source: str) -> Program:
        """Assemble source text into a program image."""
        return self.assembler.assemble(source)

    def machine(self, block_cache: bool = True) -> Machine:
        return Machine(MachineConfig(
            isa=self.isa, timing=self.timing,
            block_cache_enabled=block_cache,
        ))

    def run(self, program: Program,
            max_instructions: int = 10_000_000) -> Tuple[Machine, RunResult]:
        """Run a program on a fresh machine; returns (machine, result)."""
        machine = self.machine()
        machine.load(program)
        result = machine.run(max_instructions=max_instructions)
        return machine, result

    # -- analysis tools ---------------------------------------------------------

    def analyze_wcet(self, source: str,
                     loop_bounds: Optional[Dict[int, int]] = None,
                     max_instructions: int = 10_000_000,
                     edge_sensitive: bool = False) -> QtaAnalysis:
        """Full QTA flow: static bound + timing-annotated co-simulation."""
        return analyze_program(source, loop_bounds=loop_bounds, isa=self.isa,
                               timing=self.timing,
                               max_instructions=max_instructions,
                               edge_sensitive=edge_sensitive)

    def measure_coverage(self, program: Program,
                         max_instructions: int = 1_000_000) -> CoverageReport:
        return measure_coverage(program, isa=self.isa,
                                max_instructions=max_instructions)

    def measure_suite(self, programs: Sequence[Tuple[str, Program]],
                      max_instructions: int = 1_000_000) -> SuiteCoverage:
        return measure_suite(programs, isa=self.isa,
                             max_instructions=max_instructions)

    def fault_campaign(
        self,
        program: Program,
        budget: Optional[MutantBudget] = None,
        seed: int = 0,
        coverage_guided: bool = True,
    ) -> CampaignResult:
        """Coverage-guided fault campaign against ``program``."""
        campaign = FaultCampaign(program, isa=self.isa)
        golden = campaign.golden()
        coverage = self.measure_coverage(program) if coverage_guided else None
        faults = generate_mutants(
            program, coverage, budget,
            golden_instructions=golden.instructions, seed=seed,
        )
        return campaign.run(faults)

    # -- test generation -----------------------------------------------------------

    def arch_suite(self) -> List[Tuple[str, Program]]:
        return ArchSuiteGenerator(self.isa).generate()

    def unit_suite(self, seed: int = 0) -> List[Tuple[str, Program]]:
        return UnitSuiteGenerator(self.isa, seed=seed).generate()

    def torture_suite(self, count: int = 5, seed: int = 0,
                      length: int = 500) -> List[Tuple[str, Program]]:
        generator = TortureGenerator(
            self.isa, TortureConfig(length=length, seed=seed))
        return generator.generate_suite(count, start_seed=seed)

    def structured_programs(self, count: int = 5, seed: int = 0):
        return StructuredGenerator(self.isa).generate_suite(count, seed)
