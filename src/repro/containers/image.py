"""Container images and a pull-latency-modelling registry.

Galaxy pulls tool containers "from the docker-hub or bioconda" at first
use (paper §IV-B); subsequent launches hit the local cache.  Pull latency
is size over a registry bandwidth, which is what separates a tool's cold
first run from the steady-state ~0.6 s launch overhead measured in
§VI-B.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.containers.errors import ImageNotFoundError

GIB = 1024**3
MIB = 1024**2


@dataclass(frozen=True)
class ContainerImage:
    """A container image as the registry stores it.

    Attributes
    ----------
    repository / tag:
        Image reference parts (``repository:tag``).
    size_bytes:
        Compressed image size — drives pull latency.
    gpu_capable:
        True when the image bundles CUDA user-space libraries; a GPU tool
        in a non-GPU image fails at runtime even with ``--gpus all``.
    entrypoint:
        Binary the container starts, as ``nvidia-smi`` would show it.
    """

    repository: str
    tag: str = "latest"
    size_bytes: int = 1 * GIB
    gpu_capable: bool = False
    entrypoint: str = "/bin/sh"

    @property
    def reference(self) -> str:
        """Canonical ``repository:tag`` reference."""
        return f"{self.repository}:{self.tag}"


#: The paper's published Racon-GPU image
#: (``docker pull gulsumgudukbay/racon_dockerfile``).
RACON_GPU_IMAGE = ContainerImage(
    repository="gulsumgudukbay/racon_dockerfile",
    tag="latest",
    size_bytes=int(2.8 * GIB),
    gpu_capable=True,
    entrypoint="/usr/bin/racon_gpu",
)

#: A Bonito image built from the pip package (version 0.3.2 in the paper).
BONITO_IMAGE = ContainerImage(
    repository="nanoporetech/bonito",
    tag="0.3.2",
    size_bytes=int(4.1 * GIB),
    gpu_capable=True,
    entrypoint="/usr/local/bin/bonito",
)

#: CPU-only Racon, as shipped by bioconda/biocontainers.
RACON_CPU_IMAGE = ContainerImage(
    repository="quay.io/biocontainers/racon",
    tag="1.4.20",
    size_bytes=int(220 * MIB),
    gpu_capable=False,
    entrypoint="/usr/local/bin/racon",
)


@dataclass
class PullRecord:
    """Outcome of one registry pull."""

    reference: str
    cached: bool
    duration: float


class ImageRegistry:
    """A remote registry plus the node-local image cache."""

    #: Effective pull bandwidth in gigabytes/second.  Chameleon Cloud
    #: nodes see roughly 0.1-0.3 GB/s from Docker Hub; this keeps cold
    #: pulls in the tens-of-seconds range for the Racon image.
    bandwidth_gbps = 0.15

    def __init__(self) -> None:
        self._remote: dict[str, ContainerImage] = {}
        self._cache: dict[str, ContainerImage] = {}
        self.pull_log: list[PullRecord] = []
        for image in (RACON_GPU_IMAGE, BONITO_IMAGE, RACON_CPU_IMAGE):
            self.publish(image)

    # ------------------------------------------------------------------ #
    def publish(self, image: ContainerImage) -> None:
        """Make an image pullable (like pushing to Docker Hub)."""
        self._remote[image.reference] = image

    def pull(self, reference: str) -> tuple[ContainerImage, PullRecord]:
        """Pull an image; returns (image, pull record).

        Cache hits cost nothing.  A miss transfers ``size_bytes`` at the
        registry bandwidth.

        Raises
        ------
        ImageNotFoundError
            For a reference no registry serves.
        """
        if reference in self._cache:
            record = PullRecord(reference=reference, cached=True, duration=0.0)
            self.pull_log.append(record)
            return self._cache[reference], record
        image = self._remote.get(reference)
        if image is None:
            raise ImageNotFoundError(reference)
        duration = image.size_bytes / (self.bandwidth_gbps * 1e9)
        self._cache[reference] = image
        record = PullRecord(reference=reference, cached=False, duration=duration)
        self.pull_log.append(record)
        return image, record
