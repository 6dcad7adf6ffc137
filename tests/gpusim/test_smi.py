"""nvidia-smi emulator: XML schema, soup facade, console table."""

import xml.etree.ElementTree as ET

import pytest

from repro.gpusim.smi import (
    SmiSoup,
    process_placement,
    render_table,
    render_xml,
    run_query,
)


class TestXmlRendering:
    def test_well_formed_and_rooted(self, host):
        root = ET.fromstring(render_xml(host))
        assert root.tag == "nvidia_smi_log"
        assert root.findtext("driver_version") == "455.45.01"
        assert root.findtext("attached_gpus") == "2"
        assert len(root.findall("gpu")) == 2

    def test_minor_numbers_in_order(self, host):
        root = ET.fromstring(render_xml(host))
        minors = [g.findtext("minor_number") for g in root.findall("gpu")]
        assert minors == ["0", "1"]

    def test_process_info_schema(self, host):
        proc = host.launch_process("/usr/bin/racon_gpu", cuda_visible_devices="0")
        root = ET.fromstring(render_xml(host))
        gpu0 = root.findall("gpu")[0]
        info = gpu0.find("processes").findall("process_info")
        assert len(info) == 1
        assert info[0].findtext("pid") == str(proc.pid)
        assert info[0].findtext("type") == "C"
        assert info[0].findtext("process_name") == "/usr/bin/racon_gpu"
        assert info[0].findtext("used_memory") == "60 MiB"

    def test_process_name_escaping_is_saxutils_escape(self, host):
        """``& < >`` become entities, quotes stay: the bytes
        ``xml.sax.saxutils.escape`` produced before ``html.escape`` did."""
        name = """a&b <c> "d" 'e'"""
        host.launch_process(name, cuda_visible_devices="0")
        xml = render_xml(host)
        assert (
            "        <process_name>a&amp;b &lt;c&gt; \"d\" 'e'</process_name>\n"
            in xml
        )
        assert ET.fromstring(xml).find(".//process_name").text == name

    def test_fb_memory_usage_fields(self, host):
        host.launch_process("tool", cuda_visible_devices="1")
        root = ET.fromstring(render_xml(host))
        fb = root.findall("gpu")[1].find("fb_memory_usage")
        assert fb.findtext("total") == "11441 MiB"
        assert fb.findtext("used") == "60 MiB"
        assert fb.findtext("free") == "11381 MiB"

    def test_roundtrip_placement(self, host):
        """render -> parse recovers the (minor -> pids) map exactly."""
        a = host.launch_process("a", cuda_visible_devices="0")
        b = host.launch_process("b", cuda_visible_devices="1")
        c = host.launch_process("c", cuda_visible_devices="1")
        soup = SmiSoup(render_xml(host))
        parsed: dict[int, list[int]] = {}
        for gpu in soup.find("nvidia_smi_log").find_all("gpu"):
            minor = int(gpu.find("minor_number").text)
            parsed[minor] = [
                int(pi.find("pid").text)
                for pi in gpu.find("processes").find_all("process_info")
            ]
        assert parsed == process_placement(host)
        assert parsed == {0: [a.pid], 1: [b.pid, c.pid]}


class TestRunQuery:
    def test_supported_query(self, host):
        out, err = run_query(host, "-q -x")
        assert err == "" and out.startswith("<?xml")

    def test_unsupported_arguments_error(self, host):
        out, err = run_query(host, "--weird")
        assert out == "" and "unsupported" in err


class TestSmiSoup:
    def test_find_returns_none_when_absent(self, host):
        soup = SmiSoup(render_xml(host))
        assert soup.find("nonexistent_tag") is None

    def test_find_self_match(self):
        soup = SmiSoup("<a><b>x</b></a>")
        assert soup.find("a").name == "a"

    def test_find_all_document_order(self):
        soup = SmiSoup("<r><g><p>1</p></g><g><p>2</p></g></r>")
        assert [p.text for p in soup.find_all("p")] == ["1", "2"]

    @pytest.mark.parametrize("tag", ["r", "g", "p", "q", "absent", "leaf"])
    def test_find_and_find_all_match_the_elementpath_expression(self, tag):
        """``find`` is the node itself or else the first ``.//tag`` hit;
        ``find_all`` is every ``.//tag`` hit — on nested, repeated, absent
        and self-matching tags, from the root and from an inner node."""
        root = ET.fromstring(
            "<r><g><p>1</p><g><p>2</p><q>3</q></g></g><q>4</q><g><p>5</p></g>"
            "<leaf/></r>"
        )
        for element in (root, root.find("g"), root.find("leaf")):
            soup = SmiSoup(element)
            found = soup.find(tag)
            if element.tag == tag:
                assert found is soup
            elif element.find(f".//{tag}") is None:
                assert found is None
            else:
                assert found._element is element.find(f".//{tag}")
            assert [s._element for s in soup.find_all(tag)] == element.findall(
                f".//{tag}"
            )

    def test_text_strips(self):
        assert SmiSoup("<a>  42  </a>").text == "42"
        assert SmiSoup("<a></a>").text == ""

    def test_paper_pseudocode_shape(self, host):
        """The exact traversal of the paper's Pseudocode 1 works."""
        host.launch_process("tool", cuda_visible_devices="0")
        out, _ = run_query(host, "-q -x")
        soup = SmiSoup(out)
        proc_gpu_dict: dict[str, list[str]] = {}
        gpu_find = soup.find("nvidia_smi_log").find_all("gpu")
        for p in gpu_find:
            minor_id = p.find("minor_number").text
            proc_gpu_dict.setdefault(minor_id, [])
            for proc in p.find("processes").find_all("process_info"):
                proc_gpu_dict[minor_id].append(proc.find("pid").text)
        assert list(proc_gpu_dict) == ["0", "1"]
        assert len(proc_gpu_dict["0"]) == 1 and proc_gpu_dict["1"] == []


class TestConsoleTable:
    def test_banner_matches_paper_versions(self, host):
        table = render_table(host)
        assert "NVIDIA-SMI 455.45.01" in table
        assert "CUDA Version: 11.1" in table

    def test_empty_process_section(self, host):
        assert "No running processes found" in render_table(host)

    def test_process_rows_like_fig11(self, host):
        for mask in ("0", "1", "0", "1"):
            host.launch_process("/usr/bin/racon_gpu", cuda_visible_devices=mask)
        table = render_table(host)
        rows = [line for line in table.splitlines() if "racon_gpu" in line]
        assert len(rows) == 4
        assert all("60MiB" in row for row in rows)
        assert all(" C " in row for row in rows)

    def test_memory_column(self, host):
        host.launch_process("tool", cuda_visible_devices="1")
        table = render_table(host)
        assert "60MiB / 11441MiB" in table
        assert "0MiB / 11441MiB" in table
