"""Galaxy tool wrapper XML for Racon and Bonito (paper Codes 1 and 3).

These strings are the reproduction's counterparts of the paper's
``macros.xml`` (Code 1) and ``racon.xml`` (Code 3): the macros file
declares the new ``<requirement type="compute">gpu</requirement>`` and
the wrapper's Cheetah command switches executable on
``$__galaxy_gpu_enabled__``.
"""

from __future__ import annotations

#: Paper Code 1 — the requirements macro with the compute/gpu entry.
#: The ``version`` attribute of the gpu requirement carries the
#: requested GPU minor ID(s) (paper §IV-C).
RACON_MACROS_XML = """\
<macros>
    <xml name="requirements">
        <requirements>
            <requirement type="package" version="1.4.20">racon</requirement>
            <requirement type="compute" version="@GPU_IDS@">gpu</requirement>
            <container type="docker">gulsumgudukbay/racon_dockerfile:latest</container>
        </requirements>
    </xml>
    <token name="@TOOL_VERSION@">1.4.20</token>
</macros>
"""

#: Paper Code 3 — the Racon wrapper.  The command template reads
#: ``__galaxy_gpu_enabled__`` from the parameter dictionary exactly as
#: the paper describes, choosing ``racon_gpu`` or ``racon``.
RACON_TOOL_XML = """\
<tool id="racon" name="Racon consensus" version="@TOOL_VERSION@">
    <macros>
        <import>macros.xml</import>
    </macros>
    <expand macro="requirements"/>
    <command>
#if $__galaxy_gpu_enabled__ == "true"
racon_gpu -t $threads --cudapoa-batches $batches
#if $banding == "true"
 -b
#end if
#else
racon -t $threads
#end if
 reads.fa mappings.paf backbone.fa
    </command>
    <inputs>
        <param name="threads" type="integer" value="4" label="CPU threads"/>
        <param name="batches" type="integer" value="1" label="CUDA POA batches"/>
        <param name="banding" type="text" value="false" label="Banding approximation"/>
    </inputs>
    <outputs>
        <data name="consensus" format="fasta" label="Polished consensus"/>
    </outputs>
</tool>
"""

#: A Bonito wrapper in the same style (pip package 0.3.2 in the paper).
BONITO_TOOL_XML = """\
<tool id="bonito" name="Bonito basecaller" version="0.3.2">
    <requirements>
        <requirement type="package" version="0.3.2">ont-bonito</requirement>
        <requirement type="compute" version="@GPU_IDS@">gpu</requirement>
        <container type="docker">nanoporetech/bonito:0.3.2</container>
    </requirements>
    <command>
#if $__galaxy_gpu_enabled__ == "true"
bonito basecaller dna_r9.4.1 reads/ --device cuda
#else
bonito basecaller dna_r9.4.1 reads/ --device cpu
#end if
    </command>
    <inputs>
        <param name="model" type="text" value="dna_r9.4.1" label="Model"/>
    </inputs>
    <outputs>
        <data name="basecalls" format="fasta" label="Basecalled reads"/>
    </outputs>
</tool>
"""

#: A CPU-only control tool: no compute requirement at all, so stock and
#: GYAN behaviour must coincide (the "retain the original execution
#: flow" property).
CPU_ONLY_TOOL_XML = """\
<tool id="seqstats" name="Sequence statistics" version="1.0">
    <requirements>
        <requirement type="package" version="1.0">seqstats</requirement>
    </requirements>
    <command>
seqstats -t $threads input.fa
    </command>
    <inputs>
        <param name="threads" type="integer" value="1" label="CPU threads"/>
    </inputs>
    <outputs>
        <data name="stats" format="tabular"/>
    </outputs>
</tool>
"""


def racon_tool_xml() -> str:
    """The Racon wrapper; its GPU minor ID(s) live in the macros file
    (:func:`racon_macros_xml`)."""
    return RACON_TOOL_XML


def racon_macros_xml(gpu_ids: str = "0") -> str:
    """The macros file with the requested GPU minor ID(s) filled in."""
    return RACON_MACROS_XML.replace("@GPU_IDS@", gpu_ids)


def bonito_tool_xml(gpu_ids: str = "1") -> str:
    """The Bonito wrapper with the requested GPU minor ID(s) filled in."""
    return BONITO_TOOL_XML.replace("@GPU_IDS@", gpu_ids)
