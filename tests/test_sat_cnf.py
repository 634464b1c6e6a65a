"""Tests for the CNF container and DIMACS round-trips."""

import itertools

import pytest

from repro.sat import CNF


class TestVars:
    def test_new_var_sequential(self):
        cnf = CNF()
        assert cnf.new_var() == 1
        assert cnf.new_var() == 2
        assert cnf.num_vars == 2

    def test_named_vars(self):
        cnf = CNF()
        v = cnf.new_var("a")
        assert cnf.var("a") == v
        assert cnf.name_of(v) == "a"
        assert cnf.name_of(-v) == "a"
        assert cnf.has_name("a")
        assert not cnf.has_name("b")

    def test_duplicate_name_rejected(self):
        cnf = CNF()
        cnf.new_var("a")
        with pytest.raises(ValueError):
            cnf.new_var("a")

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            CNF().var("ghost")


class TestClauses:
    def test_add_clause(self):
        cnf = CNF()
        a, b = cnf.new_var(), cnf.new_var()
        cnf.add_clause([a, -b])
        assert cnf.clauses == [(a, -b)]

    def test_tautology_dropped(self):
        cnf = CNF()
        a = cnf.new_var()
        cnf.add_clause([a, -a])
        assert cnf.num_clauses == 0

    def test_duplicate_literals_merged(self):
        cnf = CNF()
        a = cnf.new_var()
        cnf.add_clause([a, a, a])
        assert cnf.clauses == [(a,)]

    def test_out_of_range_literal(self):
        cnf = CNF()
        with pytest.raises(ValueError):
            cnf.add_clause([1])
        cnf.new_var()
        with pytest.raises(ValueError):
            cnf.add_clause([0])


def satisfies(clauses, nvars, bits):
    env = {i + 1: bits[i] for i in range(nvars)}
    return all(
        any((lit > 0) == env[abs(lit)] for lit in clause)
        for clause in clauses
    )


def models(cnf):
    return {
        bits
        for bits in itertools.product((False, True), repeat=cnf.num_vars)
        if satisfies(cnf.clauses, cnf.num_vars, bits)
    }


class TestGateEncodings:
    def test_and_gate(self):
        cnf = CNF()
        out, a, b = cnf.new_var(), cnf.new_var(), cnf.new_var()
        cnf.add_and(out, [a, b])
        for bits in models(cnf):
            assert bits[0] == (bits[1] and bits[2])
        assert len(models(cnf)) == 4

    def test_or_gate(self):
        cnf = CNF()
        out, a, b = cnf.new_var(), cnf.new_var(), cnf.new_var()
        cnf.add_or(out, [a, b])
        for bits in models(cnf):
            assert bits[0] == (bits[1] or bits[2])

    def test_xor_gate(self):
        cnf = CNF()
        out, a, b = cnf.new_var(), cnf.new_var(), cnf.new_var()
        cnf.add_xor2(out, a, b)
        for bits in models(cnf):
            assert bits[0] == (bits[1] ^ bits[2])

    def test_mux_gate(self):
        cnf = CNF()
        out, sel, d0, d1 = (cnf.new_var() for _ in range(4))
        cnf.add_mux(out, sel, d0, d1)
        for bits in models(cnf):
            out_v, sel_v, d0_v, d1_v = bits
            assert out_v == (d1_v if sel_v else d0_v)
        assert len(models(cnf)) == 8

    def test_equiv_and_implies(self):
        cnf = CNF()
        a, b = cnf.new_var(), cnf.new_var()
        cnf.add_equiv(a, b)
        assert models(cnf) == {(False, False), (True, True)}
        cnf2 = CNF()
        a, b = cnf2.new_var(), cnf2.new_var()
        cnf2.add_implies(a, b)
        assert (True, False) not in models(cnf2)


class TestDimacs:
    def test_round_trip(self):
        cnf = CNF()
        a, b, c = cnf.new_var("a"), cnf.new_var("b"), cnf.new_var()
        cnf.add_clause([a, -b])
        cnf.add_clause([-a, b, c])
        rebuilt = CNF.from_dimacs(cnf.to_dimacs())
        assert rebuilt.num_vars == cnf.num_vars
        assert rebuilt.clauses == cnf.clauses

    def test_parse_basic(self):
        text = "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n"
        cnf = CNF.from_dimacs(text)
        assert cnf.num_vars == 3
        assert cnf.clauses == [(1, -2), (2, 3)]

    def test_parse_bad_problem_line(self):
        with pytest.raises(ValueError):
            CNF.from_dimacs("p wcnf 1 1\n1 0\n")

    def test_parse_grows_vars_from_literals(self):
        cnf = CNF.from_dimacs("p cnf 1 1\n1 -5 0\n")
        assert cnf.num_vars == 5
