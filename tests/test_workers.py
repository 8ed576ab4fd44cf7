import warnings

import pytest

from aia import workers
from aia.errors import AiaError


def _warn(unit):
    """Warn about the unit's residue mod 3, and once more on unit 4; fail
    on unit 5."""
    warnings.warn(f"unit {unit % 3}", UserWarning)
    if unit == 4:
        warnings.warn("four", RuntimeWarning)
    if unit == 5:
        raise AiaError("five")
    return unit


_ALWAYS = ["unit 0", "unit 1", "unit 2", "unit 0", "unit 1", "four", "unit 2"]


@pytest.mark.parametrize("action, expected", [
    ("always", _ALWAYS * 2),
    ("default", ["unit 0", "unit 1", "unit 2", "four"]),
    ("ignore", []),
], ids=["always", "default", "ignore"])
def test_map_units_warnings_do_not_depend_on_the_worker_count(monkeypatch, action,
                                                              expected):
    # Each unit's warnings reach the caller, in unit order and through its
    # filters, up to the failing unit, whatever the number of workers;
    # "default" prints each (text, line) once per process, so a second run
    # in the same process prints none of them again.
    seen = {}
    for n_workers in (1, 2, 3):
        monkeypatch.setattr(workers, "worker_count", lambda: n_workers)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            for _ in range(2):
                with pytest.raises(AiaError, match="five"):
                    workers.map_units(_warn, range(7))
        seen[n_workers] = [(str(w.message), w.category, w.filename, w.lineno)
                           for w in caught]
    assert seen[2] == seen[1] and seen[3] == seen[1]
    assert [text for text, *_ in seen[1]] == expected
    assert all(filename == __file__ for _, _, filename, _ in seen[1])
