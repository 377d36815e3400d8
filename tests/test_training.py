def test_two_community_run_learns(two_community_run):
    """The reference run early-stops with test hits@10 well above chance.

    Chance hits@10 is 10/40 = 0.25; the seeded run measures 0.559.
    """
    assert two_community_run["result"].stopped == "early_stop"
    assert two_community_run["report"].hits[10] > 0.45
