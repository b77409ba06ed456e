"""Exception types shared across the library."""


class StokesFVError(Exception):
    """Base class for all library errors."""


class GridError(StokesFVError, ValueError):
    """Invalid grid construction or mismatched grids."""


class ClusterError(StokesFVError, ValueError):
    """Invalid cluster partition (odd cell counts, grid mismatch)."""


class ConfigError(StokesFVError, ValueError):
    """Invalid run configuration (CLI flags, config file) or malformed
    exported system."""


class SolverError(StokesFVError, RuntimeError):
    """Linear solver failure that cannot be expressed as a report."""
