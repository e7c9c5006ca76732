"""Unit tests for the cycle-level tile simulator."""

import pytest

from repro.arch.control import (
    AluConfig,
    Cycle,
    ImmSource,
    MemLoc,
    Move,
    RegLoc,
    TileProgram,
)
from repro.arch.params import TileParams
from repro.arch.simulator import (
    SimulationError,
    TileSimulator,
    op_arity,
    simulate,
)
from repro.arch.templates import ClusterShape
from repro.cdfg.ops import Address, OpKind
from repro.cdfg.statespace import StateSpace


def mem(pp, m, name, off=0):
    return MemLoc(pp, m, Address(name, off))


def make_program(cycles, params=None, data=None, outputs=None):
    return TileProgram(params=params or TileParams(), cycles=cycles,
                       data_layout=data or {},
                       output_layout=outputs or {})


class TestOpArity:
    def test_unary(self):
        assert op_arity(OpKind.NEG) == 1
        assert op_arity(OpKind.ABS) == 1

    def test_binary(self):
        assert op_arity(OpKind.ADD) == 2

    def test_mux(self):
        assert op_arity(OpKind.MUX) == 3


class TestBasicExecution:
    def test_move_then_add_then_store(self):
        x = Address("x")
        program = make_program(
            cycles=[
                Cycle(moves=[Move(mem(0, 0, "a"), RegLoc(0, 0, 0)),
                             Move(ImmSource(5), RegLoc(0, 1, 0))]),
                Cycle(alu_configs=[AluConfig(
                    pp=0, shape=ClusterShape.SINGLE, ops=(OpKind.ADD,),
                    operands=[RegLoc(0, 0, 0), RegLoc(0, 1, 0)],
                    dests=[mem(1, 0, "x")])]),
            ],
            data={Address("a"): mem(0, 0, "a")},
            outputs={x: mem(1, 0, "x")})
        result = simulate(program, StateSpace({"a": 37}))
        assert result.fetch("x") == 42

    def test_chain_shape(self):
        program = make_program(
            cycles=[
                Cycle(moves=[Move(ImmSource(3), RegLoc(0, 0, 0)),
                             Move(ImmSource(4), RegLoc(0, 1, 0)),
                             Move(ImmSource(10), RegLoc(0, 2, 0))]),
                Cycle(alu_configs=[AluConfig(
                    pp=0, shape=ClusterShape.CHAIN,
                    ops=(OpKind.ADD, OpKind.MUL),
                    operands=[RegLoc(0, 0, 0), RegLoc(0, 1, 0),
                              RegLoc(0, 2, 0)],
                    dests=[mem(0, 0, "r")])]),
            ],
            outputs={Address("r"): mem(0, 0, "r")})
        assert simulate(program).fetch("r") == 3 * 4 + 10

    def test_dual_shape(self):
        program = make_program(
            cycles=[
                Cycle(moves=[Move(ImmSource(2), RegLoc(0, 0, 0)),
                             Move(ImmSource(3), RegLoc(0, 1, 0)),
                             Move(ImmSource(4), RegLoc(0, 2, 0)),
                             Move(ImmSource(5), RegLoc(0, 3, 0))]),
                Cycle(alu_configs=[AluConfig(
                    pp=0, shape=ClusterShape.DUAL,
                    ops=(OpKind.ADD, OpKind.MUL, OpKind.MUL),
                    operands=[RegLoc(0, 0, 0), RegLoc(0, 1, 0),
                              RegLoc(0, 2, 0), RegLoc(0, 3, 0)],
                    dests=[mem(0, 0, "r")])]),
            ],
            outputs={Address("r"): mem(0, 0, "r")})
        assert simulate(program).fetch("r") == 2 * 3 + 4 * 5

    def test_mux_single(self):
        program = make_program(
            cycles=[
                Cycle(moves=[Move(ImmSource(0), RegLoc(0, 0, 0)),
                             Move(ImmSource(11), RegLoc(0, 1, 0)),
                             Move(ImmSource(22), RegLoc(0, 2, 0))]),
                Cycle(alu_configs=[AluConfig(
                    pp=0, shape=ClusterShape.SINGLE, ops=(OpKind.MUX,),
                    operands=[RegLoc(0, 0, 0), RegLoc(0, 1, 0),
                              RegLoc(0, 2, 0)],
                    dests=[mem(0, 0, "r")])]),
            ],
            outputs={Address("r"): mem(0, 0, "r")})
        assert simulate(program).fetch("r") == 22

    def test_width_wrapping(self):
        program = make_program(
            params=TileParams(width=16),
            cycles=[
                Cycle(moves=[Move(ImmSource(300), RegLoc(0, 0, 0)),
                             Move(ImmSource(300), RegLoc(0, 1, 0))]),
                Cycle(alu_configs=[AluConfig(
                    pp=0, shape=ClusterShape.SINGLE, ops=(OpKind.MUL,),
                    operands=[RegLoc(0, 0, 0), RegLoc(0, 1, 0)],
                    dests=[mem(0, 0, "r")])]),
            ],
            outputs={Address("r"): mem(0, 0, "r")})
        assert simulate(program).fetch("r") == (90000 + 2**15) % 2**16 \
            - 2**15


class TestTimingSemantics:
    def test_same_cycle_read_sees_old_value(self):
        """A register written in cycle t is readable only from t+1;
        a reader in cycle t sees the previous content."""
        program = make_program(
            cycles=[
                Cycle(moves=[Move(ImmSource(1), RegLoc(0, 0, 0)),
                             Move(ImmSource(0), RegLoc(0, 1, 0))]),
                # cycle 1: ALU reads Ra[0] (=1) while a move overwrites
                # Ra[0] with 99 in the same cycle.
                Cycle(alu_configs=[AluConfig(
                    pp=0, shape=ClusterShape.SINGLE, ops=(OpKind.ADD,),
                    operands=[RegLoc(0, 0, 0), RegLoc(0, 1, 0)],
                    dests=[mem(0, 0, "r")])],
                    moves=[Move(ImmSource(99), RegLoc(0, 0, 0))]),
            ],
            outputs={Address("r"): mem(0, 0, "r")})
        assert simulate(program).fetch("r") == 1

    def test_memory_store_readable_next_cycle(self):
        program = make_program(
            cycles=[
                Cycle(moves=[Move(ImmSource(7), mem(0, 0, "t"))]),
                Cycle(moves=[Move(mem(0, 0, "t"), mem(1, 1, "r"))]),
            ],
            outputs={Address("r"): mem(1, 1, "r")})
        assert simulate(program).fetch("r") == 7

    def test_read_register_before_write_rejected(self):
        program = make_program(cycles=[Cycle(alu_configs=[AluConfig(
            pp=0, shape=ClusterShape.SINGLE, ops=(OpKind.NEG,),
            operands=[RegLoc(0, 0, 0)], dests=[mem(0, 0, "r")])])])
        with pytest.raises(SimulationError):
            simulate(program)

    def test_read_uninitialised_memory_rejected(self):
        program = make_program(cycles=[Cycle(
            moves=[Move(mem(0, 0, "ghost"), RegLoc(0, 0, 0))])])
        with pytest.raises(SimulationError):
            simulate(program)


class TestResourceChecks:
    def test_bus_limit_enforced(self):
        params = TileParams(n_buses=2)
        moves = [Move(ImmSource(i), RegLoc(0, 0, i)) for i in range(3)]
        program = make_program(params=params,
                               cycles=[Cycle(moves=moves)])
        with pytest.raises(SimulationError,
                           match=r"^cycle 0: 3 crossbar values exceed "
                                 r"2 buses$"):
            simulate(program)

    def test_bus_limit_counts_alu_results_and_shared_sources(self):
        """One bus per distinct value: a source moved to two registers
        takes one bus, an ALU result with destinations takes one."""
        params = TileParams(n_buses=2)
        setup = Cycle(moves=[Move(ImmSource(1), RegLoc(0, 0, 0))])
        alu = AluConfig(pp=0, shape=ClusterShape.SINGLE,
                        ops=(OpKind.NEG,), operands=[RegLoc(0, 0, 0)],
                        dests=[mem(0, 0, "r")])
        shared = [Move(ImmSource(7), RegLoc(1, 0, 0)),
                  Move(ImmSource(7), RegLoc(1, 1, 0))]
        simulate(make_program(params=params, cycles=[
            setup, Cycle(alu_configs=[alu], moves=shared)]))
        with pytest.raises(SimulationError,
                           match=r"^cycle 1: 3 crossbar values exceed "
                                 r"2 buses$"):
            simulate(make_program(params=params, cycles=[
                setup, Cycle(alu_configs=[alu], moves=shared + [
                    Move(ImmSource(8), RegLoc(1, 2, 0))])]))

    def test_bus_limit_can_be_disabled(self):
        params = TileParams(n_buses=2)
        moves = [Move(ImmSource(i), RegLoc(0, 0, i)) for i in range(3)]
        program = make_program(params=params,
                               cycles=[Cycle(moves=moves)])
        simulate(program, check_limits=False)

    def test_memory_read_port_limit(self):
        data = {Address("a"): mem(0, 0, "a"), Address("b"): mem(0, 0, "b")}
        program = make_program(
            cycles=[Cycle(moves=[Move(mem(0, 0, "a"), RegLoc(0, 0, 0)),
                                 Move(mem(0, 0, "b"), RegLoc(0, 1, 0))])],
            data=data)
        with pytest.raises(SimulationError,
                           match=r"^cycle 0: PP0\.MEM1 serves 2 reads, "
                                 r"has 1 port\(s\)$"):
            simulate(program, StateSpace({"a": 1, "b": 2}))

    def test_same_word_two_moves_share_port(self):
        data = {Address("a"): mem(0, 0, "a")}
        program = make_program(
            cycles=[Cycle(moves=[Move(mem(0, 0, "a"), RegLoc(0, 0, 0)),
                                 Move(mem(0, 0, "a"), RegLoc(1, 0, 0))])],
            data=data)
        simulate(program, StateSpace({"a": 1}))

    def test_bank_write_port_limit(self):
        program = make_program(
            cycles=[Cycle(moves=[Move(ImmSource(1), RegLoc(0, 0, 0)),
                                 Move(ImmSource(2), RegLoc(0, 0, 1))])])
        with pytest.raises(SimulationError,
                           match=r"^cycle 0: PP0 bank 0 takes 2 writes, "
                                 r"has 1 port\(s\)$"):
            simulate(program)

    def test_register_double_write_conflict(self):
        program = make_program(
            cycles=[Cycle(moves=[Move(ImmSource(1), RegLoc(0, 0, 0)),
                                 Move(ImmSource(2), RegLoc(0, 0, 0))])])
        with pytest.raises(SimulationError,
                           match=r"^cycle 0: register PP0\.Ra\[0\] "
                                 r"written twice$"):
            simulate(program)

    def test_memory_word_double_write_conflict(self):
        params = TileParams(mem_write_ports=2)
        program = make_program(params=params, cycles=[
            Cycle(moves=[Move(ImmSource(1), mem(0, 1, "x")),
                         Move(ImmSource(2), mem(0, 1, "x"))])])
        with pytest.raises(SimulationError,
                           match=r"^cycle 0: memory word PP0\.MEM2\[x\] "
                                 r"written twice$"):
            simulate(program)

    def test_alu_result_and_move_to_one_register_conflict(self):
        program = make_program(cycles=[
            Cycle(moves=[Move(ImmSource(1), RegLoc(0, 0, 0))]),
            Cycle(alu_configs=[AluConfig(
                pp=0, shape=ClusterShape.SINGLE, ops=(OpKind.NEG,),
                operands=[RegLoc(0, 0, 0)], dests=[RegLoc(1, 0, 0)])],
                moves=[Move(ImmSource(2), RegLoc(1, 0, 0))])])
        with pytest.raises(SimulationError,
                           match=r"^cycle 1: register PP1\.Ra\[0\] "
                                 r"written twice$"):
            simulate(program)

    def test_memory_write_port_limit(self):
        program = make_program(
            cycles=[Cycle(moves=[Move(ImmSource(1), mem(0, 0, "x")),
                                 Move(ImmSource(2), mem(0, 0, "y"))])])
        with pytest.raises(SimulationError,
                           match=r"^cycle 0: PP0\.MEM1 takes 2 writes, "
                                 r"has 1 port\(s\)$"):
            simulate(program)

    def test_memory_capacity_enforced(self):
        params = TileParams(memory_words=2)
        data = {Address("w", i): mem(0, 0, "w", i) for i in range(3)}
        program = make_program(params=params, cycles=[], data=data)
        with pytest.raises(SimulationError,
                           match=r"^PP0\.MEM1 holds 3 words, "
                                 r"capacity 2$"):
            TileSimulator(program, StateSpace())

    def test_memory_overflow_during_run_enforced(self):
        params = TileParams(memory_words=1)
        data = {Address("w"): mem(0, 0, "w")}
        program = make_program(params=params, data=data, cycles=[
            Cycle(moves=[Move(ImmSource(1), mem(0, 0, "v"))])])
        with pytest.raises(SimulationError,
                           match=r"^cycle 0: PP0\.MEM1\[v\] overflows "
                                 r"1-word memory$"):
            simulate(program, StateSpace({"w": 5}))

    def test_first_violation_in_check_order_is_reported(self):
        """Buses are checked before ports and double writes."""
        params = TileParams(n_buses=1)
        program = make_program(params=params, cycles=[Cycle(moves=[
            Move(ImmSource(1), RegLoc(0, 0, 0)),
            Move(ImmSource(2), RegLoc(0, 0, 0))])])
        with pytest.raises(SimulationError, match="crossbar values"):
            simulate(program)

    def test_foreign_register_read_rejected(self):
        program = make_program(
            cycles=[
                Cycle(moves=[Move(ImmSource(1), RegLoc(1, 0, 0))]),
                Cycle(alu_configs=[AluConfig(
                    pp=0, shape=ClusterShape.SINGLE, ops=(OpKind.NEG,),
                    operands=[RegLoc(1, 0, 0)],
                    dests=[mem(0, 0, "r")])]),
            ])
        with pytest.raises(SimulationError):
            simulate(program)

    def test_pp_configured_twice_rejected(self):
        config = AluConfig(pp=0, shape=ClusterShape.SINGLE,
                           ops=(OpKind.NEG,), operands=[RegLoc(0, 0, 0)])
        program = make_program(cycles=[
            Cycle(moves=[Move(ImmSource(1), RegLoc(0, 0, 0))]),
            Cycle(alu_configs=[config, config])])
        with pytest.raises(SimulationError):
            simulate(program)

    def test_wrong_operand_count_rejected(self):
        program = make_program(cycles=[
            Cycle(moves=[Move(ImmSource(1), RegLoc(0, 0, 0))]),
            Cycle(alu_configs=[AluConfig(
                pp=0, shape=ClusterShape.SINGLE, ops=(OpKind.ADD,),
                operands=[RegLoc(0, 0, 0)], dests=[mem(0, 0, "r")])])])
        with pytest.raises(SimulationError):
            simulate(program)

    def test_missing_output_rejected(self):
        program = make_program(cycles=[],
                               outputs={Address("r"): mem(0, 0, "r")})
        with pytest.raises(SimulationError):
            simulate(program)

    def test_outputs_overlay_initial_state(self):
        program = make_program(
            cycles=[Cycle(moves=[Move(ImmSource(5), mem(0, 0, "x"))])],
            outputs={Address("x"): mem(0, 0, "x")})
        result = simulate(program, StateSpace({"x": 1, "keep": 3}))
        assert result.fetch("x") == 5
        assert result.fetch("keep") == 3
