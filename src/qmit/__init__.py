"""qmit: density-matrix simulation and training of parameterized quantum
circuits with learnable Pauli noise mitigation."""

__version__ = "0.1.0"

# The command line (cli) and the release criteria (selftest) are imported on
# demand, so that ``python -m qmit.cli`` runs a module not yet imported.
from . import data, losses, noise, pqc, qsim, train

__all__ = ["data", "losses", "noise", "pqc", "qsim", "train", "__version__"]
