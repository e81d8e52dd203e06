"""The traced benchmark wraps functions it looks up by name in their owner's
own namespace (``vars(owner)[attr]``); a method moved to a base class or
renamed would make every traced run fail with a KeyError."""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_target_is_defined_on_its_owner(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    targets = spans.targets()
    assert targets
    for owner, attr, name, _ in targets:
        assert attr in vars(owner), f"{name}: {owner.__name__} defines no {attr}"
