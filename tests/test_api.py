import lem


def test_every_name_in_all_resolves():
    # `from lem import *` fails on a stale entry
    missing = [name for name in lem.__all__ if not hasattr(lem, name)]
    assert missing == []
