"""Exception hierarchy shared across the package."""


class GaugeKitError(Exception):
    """Base class for all gaugekit errors."""


class DomainError(GaugeKitError):
    """An evaluation was requested outside a function's or set's domain.

    Carries the offending point in ``witness`` when known.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InvalidGaugeError(GaugeKitError):
    """A gauge radius evaluation failed or returned a non-positive value."""


class InvalidSetError(GaugeKitError):
    """A set was built with an invalid parameter, such as a fat-Cantor
    walk depth cap below 1."""


class PartitionMergeError(GaugeKitError):
    """Partition domains to be merged leave a gap or overlap."""


class DepthExhaustedError(GaugeKitError):
    """Bisection hit its depth cap without finding an acceptable tag.

    ``interval`` is the smallest interval for which no candidate tag was
    accepted; this usually means the gauge's tag oracle is inadequate or
    the gauge vanishes in the limit somewhere inside that interval.
    """

    def __init__(self, message, interval=None):
        super().__init__(message)
        self.interval = interval


class UnsupportedInstanceError(GaugeKitError):
    """An operation needs a certificate (modulus, band, cover) the
    instance does not supply."""


class UndecidedError(GaugeKitError):
    """An exact set query hit its depth cap before resolving.

    ``bounds`` carries certified (lower, upper) bounds when available.
    """

    def __init__(self, message, bounds=None):
        super().__init__(message)
        self.bounds = bounds
