"""Generated INI files: every config the grammar accepts either runs or is
rejected as bad input. The CLI exits 0 or 2, never 1.

Each example is a valid config in which at most one key draws an
out-of-range value, a non-finite number or garbage instead. An out-of-range
or non-finite value must be rejected (exit 2); garbage may still parse (`1,2`
is a valid tuple), so it exits 0 or 2. Sizes stay small
so that every run takes milliseconds: disks of at most 8x8, at most 100
workload ops, at most 3 training intervals of at most 50 ops and at most 2
compare seeds. The keys that bound the run time, and the primary corpus, are
always written, because their defaults are full-size runs; out-of-range
values for them stay small too. Disk, block and window sizes and seed counts
beyond their caps are drawn as out-of-range values: they are rejected before
anything is allocated for them.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apexsim.cli import main

NON_FINITE = ["nan", "inf", "-inf", "1e999"]
GARBAGE = ["", "x", "1,2", "bogus", "weird", "0x10", "--"]


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False).map(repr)


def words(*good):
    return st.sampled_from(good)


def tuples(n, lo, hi):
    return st.lists(st.integers(lo, hi), min_size=n, max_size=n).map(lambda v: ",".join(map(str, v)))


# key -> (valid values, out-of-range values). Every key also draws the
# non-finite and garbage values.
KEYS = {
    ("disk", "rows"): (ints(1, 8), ["0", "-2", "2000000"]),
    ("disk", "cols"): (ints(1, 8), ["0", "-2", "2000000"]),
    ("disk", "block_size"): (ints(1, 4096), ["0", "-4096", "65537", "100000000000000"]),
    ("disk", "neighborhood"): (
        words("grid-row", "none", "contiguous:1", "contiguous:3", "contiguous:40"),
        ["contiguous:0", "contiguous:-2", "contiguous:", "contiguous:x", "hexagonal",
         "contiguous:1048577", "contiguous:100000000000"],
    ),
    ("disk", "invert_link_rule"): (words("true", "false", "yes", "0"), ["2", "maybe"]),
    ("policy", "kind"): (words("apex", "first-fit", "random"), ["best"]),
    ("policy", "coefficients"): (tuples(4, -3, 12), ["4,7,1", "4,7,1,9,2"]),
    ("workload", "seed"): (ints(-5, 10**6), []),
    ("workload", "total_ops"): (ints(0, 100), ["-1"]),
    ("workload", "max_file_blocks"): (ints(1, 20), ["0", "-3"]),
    ("workload", "linked_percent"): (floats(0.0, 100.0), ["-1", "101"]),
    ("workload", "min_utilization"): (floats(0.0, 0.99), ["1.0", "-0.1"]),
    ("workload", "mix"): (
        words("0.70,0.15,0.15", "0.2,0.4,0.4", "1,0,0", "0,1,0", "0,0,1"),
        ["0.5,0.5,0.5", "-0.1,0.6,0.5", "0.5,0.5", "nan,0.5,0.5", "0.5,0.5,inf"],
    ),
    ("perf", "beta"): (floats(0.0, 1.0), ["-0.5", "1.5"]),
    ("train", "initial"): (tuples(4, 1, 10), ["0,5,5,5", "11,1,1,1"]),
    ("train", "min_budget"): (ints(0, 3), ["-1"]),
    ("train", "oin_per_min"): (ints(1, 50), ["0", "-5"]),
    ("train", "epsilon_floor"): (floats(1e-9, 0.99), ["0", "1", "1.5"]),
    ("train", "learning_rate"): (floats(1e-3, 1.0), ["0", "1.5"]),
    ("train", "discount"): (floats(0.0, 0.99), ["1", "-0.1"]),
    ("compare", "primary_count"): (ints(1, 3), ["0", "200"]),
    ("compare", "primary_blocks"): (ints(1, 8), ["0", "-1"]),
    ("compare", "primary_type"): (words("partial", "linked"), ["weird"]),
    # a full disk stops a target past its size (see compare.run_flood)
    ("compare", "secondary_blocks"): (tuples(2, 0, 80) | words("1000"), ["-5,102", "3,-1"]),
    ("compare", "secondary_min_blocks"): (ints(1, 6), ["0"]),
    ("compare", "secondary_max_blocks"): (ints(1, 6), ["0"]),
    ("compare", "seed_count"): (ints(1, 2), ["0", "-1", "10001", "100000000000"]),
    ("compare", "policies"): (words("apex", "apex,first-fit", "random,apex"), ["apex,bogus", ","]),
}
# Out of range for compare alone, whose primary corpus must fit the disk.
CORPUS_OVER_DISK = (("compare", "primary_count"), "200")
# Always written: the defaults of these keys are full-size runs, and the
# default primary corpus does not fit on an 8x8 disk.
REQUIRED = [("disk", "rows"), ("disk", "cols"), ("workload", "total_ops"),
            ("train", "min_budget"), ("train", "oin_per_min"), ("compare", "seed_count"),
            ("compare", "primary_count"), ("compare", "primary_blocks")]


@st.composite
def configs(draw):
    """(entries, bad): a valid config with any subset of the optional keys,
    and at most one key replaced by an out-of-range, non-finite or garbage
    value. bad is that key when its value is out of range or non-finite,
    else None."""
    entries = draw(st.fixed_dictionaries(
        {k: KEYS[k][0] for k in REQUIRED},
        optional={k: v[0] for k, v in KEYS.items() if k not in REQUIRED},
    ))
    bad = None
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(KEYS)))
        rejected = [*KEYS[key][1], *NON_FINITE]
        entries[key] = draw(st.sampled_from([*rejected, *GARBAGE]))
        if entries[key] in rejected:
            bad = key
    return entries, bad


COMMANDS = ["simulate", "compare", "train"]
SMALL = {
    ("disk", "rows"): "4",
    ("disk", "cols"): "4",
    ("workload", "total_ops"): "30",
    ("train", "min_budget"): "2",
    ("train", "oin_per_min"): "20",
    ("compare", "seed_count"): "1",
    ("compare", "primary_count"): "1",
    ("compare", "primary_blocks"): "3",
}


def ini_text(entries) -> str:
    sections = {}
    for (section, key), value in sorted(entries.items()):
        sections.setdefault(section, []).append(f"{key} = {value}")
    return "".join(f"[{s}]\n" + "\n".join(lines) + "\n\n" for s, lines in sections.items())


def exit_code(command, entries) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.ini"
        cfg.write_text(ini_text(entries))
        return main([command, "--config", str(cfg), "--out", str(Path(tmp) / "out")])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    command=st.sampled_from(COMMANDS),
    config=configs(),
)
@example(command="compare", config=({**SMALL, ("compare", "policies"): "apex,bogus"},
                                    ("compare", "policies")))
@example(command="compare", config=({**SMALL, ("compare", "primary_type"): "weird"},
                                    ("compare", "primary_type")))
@example(command="compare", config=({  # the default primary corpus, 5 x 26 blocks
    **{k: v for k, v in SMALL.items() if k[0] != "compare" or k[1] == "seed_count"},
    ("disk", "rows"): "8", ("disk", "cols"): "8",
}, None))
@example(command="simulate", config=({**SMALL, ("workload", "mix"): "nan,0.5,0.5"},
                                     ("workload", "mix")))
@example(command="simulate", config=({
    **SMALL, ("policy", "coefficients"): "100000000000000000000000,1,1,1"},
    ("policy", "coefficients")))
@example(command="simulate", config=({**SMALL, ("compare", "seed_count"): "100000000000"},
                                     ("compare", "seed_count")))
# keys outside the grammar: retired modes, and the retired spellings of
# values that are now derived or set once
@example(command="train", config=({**SMALL, ("train", "mode"): "hill-climb"}, ("train", "mode")))
@example(command="simulate", config=({**SMALL, ("perf", "aat_mode"): "seek-cost"},
                                     ("perf", "aat_mode")))
@example(command="train", config=({**SMALL, ("train", "tau"): "1.0"}, ("train", "tau")))
@example(command="simulate", config=({**SMALL, ("perf", "alpha"): "1.0"}, ("perf", "alpha")))
@example(command="compare", config=({**SMALL, ("compare", "seeds"): "0"}, ("compare", "seeds")))
def test_cli_exits_zero_or_two_on_generated_configs(command, config):
    entries, bad = config
    code = exit_code(command, entries)
    if bad is not None and (command == "compare" or (bad, entries[bad]) != CORPUS_OVER_DISK):
        assert code == 2, f"{command} exited {code} on {bad} = {entries[bad]!r}:\n{ini_text(entries)}"
    assert code in (0, 2), f"{command} exited {code} on:\n{ini_text(entries)}"


@pytest.mark.parametrize("key", sorted(KEYS), ids="-".join)
def test_cli_exits_two_on_each_out_of_range_value(key):
    """The draws above sample the table; this walks all of it: each
    out-of-range and non-finite value of each key, set alone on the small
    config, is rejected by every command the generated configs run."""
    for value in [*KEYS[key][1], *NON_FINITE]:
        for command in COMMANDS:
            if command == "compare" or (key, value) != CORPUS_OVER_DISK:
                assert exit_code(command, {**SMALL, key: value}) == 2, f"{command}: {key} = {value}"
