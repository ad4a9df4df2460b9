"""Slow reference implementations that fast paths in ``src/`` are tested
against."""


def frequencies_loop(keys_per_team) -> dict:
    """{per-team count tuples: number of samples}, one sample at a time,
    keyed in order of first occurrence: the counting loop that
    ``simulate._frequencies`` replaces."""
    samples = len(keys_per_team[0])
    freq = {}
    for i in range(samples):
        key = tuple(tuple(int(x) for x in keys[i]) for keys in keys_per_team)
        freq[key] = freq.get(key, 0) + 1
    return freq
