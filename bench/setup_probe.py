"""Set-up a CLI user pays on every command: import ``cwsoc.cli``, then
build and validate the workload's measures.

    PYTHONPATH=src python3 bench/setup_probe.py <workload>

``run.py`` times this in fresh interpreters as ``setup_s``.
"""
import sys

import cwsoc.cli  # noqa: F401  (the import is part of what is timed)
from cwsoc import measure


def five_atom():
    """Symmetric five-atom base; not three-point, so enumeration recurses."""
    return measure.Measure1D(atoms=((-2.0, 0.1), (-1.0, 0.15), (0.0, 0.5),
                                    (1.0, 0.15), (2.0, 0.1)))


MEASURES = {
    "exact": lambda: [measure.three_point(0.25), five_atom()],
    "sampling": lambda: [measure.gaussian(), measure.three_point(0.25),
                         measure.rho_zero()],
    "analysis": lambda: [measure.gaussian(), measure.rho_zero(),
                         measure.three_point(0.25), measure.rademacher()],
}


if __name__ == "__main__":
    for m in MEASURES[sys.argv[1]]():
        m.validate()
