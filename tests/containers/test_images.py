"""Image registry: pulls, caching, latency model."""

import pytest

from repro.containers.errors import ImageNotFoundError
from repro.containers.image import (
    BONITO_IMAGE,
    ContainerImage,
    ImageRegistry,
    RACON_GPU_IMAGE,
)


class TestImages:
    def test_paper_racon_image_reference(self):
        """§VI-B: docker pull gulsumgudukbay/racon_dockerfile."""
        assert RACON_GPU_IMAGE.reference == "gulsumgudukbay/racon_dockerfile:latest"
        assert RACON_GPU_IMAGE.gpu_capable

    def test_bonito_image_pinned_to_paper_version(self):
        assert BONITO_IMAGE.tag == "0.3.2"

    def test_reference_format(self):
        image = ContainerImage(repository="org/tool", tag="2.1")
        assert image.reference == "org/tool:2.1"


class TestRegistry:
    def test_cold_pull_costs_time_proportional_to_size(self):
        registry = ImageRegistry(bandwidth_gbps=0.15)
        _, record = registry.pull(RACON_GPU_IMAGE.reference)
        assert not record.cached
        expected = RACON_GPU_IMAGE.size_bytes / 0.15e9
        assert record.duration == pytest.approx(expected)

    def test_cache_hit_is_free(self):
        registry = ImageRegistry()
        registry.pull(RACON_GPU_IMAGE.reference)
        _, record = registry.pull(RACON_GPU_IMAGE.reference)
        assert record.cached and record.duration == 0.0

    def test_unknown_reference_raises(self):
        with pytest.raises(ImageNotFoundError):
            ImageRegistry().pull("nobody/nothing:latest")

    def test_publish_then_pull(self):
        registry = ImageRegistry()
        registry.publish(ContainerImage(repository="lab/custom", size_bytes=10**9))
        image, _ = registry.pull("lab/custom:latest")
        assert image.repository == "lab/custom"

    def test_pull_log(self):
        registry = ImageRegistry()
        registry.pull(RACON_GPU_IMAGE.reference)
        registry.pull(RACON_GPU_IMAGE.reference)
        assert [r.cached for r in registry.pull_log] == [False, True]

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            ImageRegistry(bandwidth_gbps=0)
