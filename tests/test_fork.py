from gibbscert import _fork


def test_split_gives_each_forked_group_the_break_even_work():
    assert _fork.split(89, 8, [0, 1]) == [range(0, 44), range(44, 89)]  # phi.csv at m = 601
    assert _fork.split(15, 8, [0, 1]) == [range(0, 15)]
    assert _fork.split(24, 8, [3, 3, 3]) == [range(0, 8), range(8, 16), range(16, 24)]
    assert _fork.split(0, 8, [0, 1]) == [range(0, 0)]  # an empty table still has its group
    assert _fork.split(3, 0, [0] * 6) == [range(0, 1), range(1, 2), range(2, 3)]
    for units in range(40):
        for min_units in range(6):
            for n_cpus in (1, 2, 3, 5):
                groups = _fork.split(units, min_units, list(range(n_cpus)))
                assert [u for g in groups for u in g] == list(range(units))
                assert 1 <= len(groups) <= n_cpus
                assert len(groups) == 1 or min(map(len, groups)) >= min_units
