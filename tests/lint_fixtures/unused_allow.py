"""Fixture: allows that silence nothing (REP002), and the lines an allow covers."""

import time


def nothing_to_silence():
    return 1  # repro: allow[REP103] no clock is read on this line


def trailing_allow_covers_its_own_line_only():
    start = 0  # repro: allow[REP103] a trailing allow does not reach the next line
    return time.perf_counter() - start


def own_line_allow_covers_the_next_line():
    # repro: allow[REP103] a directive on a line of its own covers the line below
    return time.perf_counter()


def one_of_two_rules_fires(value):
    assert value  # repro: allow[REP403, REP103] only the assert fires here
    return value
