"""Linux-compile provenance stream (Table 2's payload).

The paper's service-throughput benchmark uploads "the first 50 MB of
provenance generated during a Linux compile" to each of S3, SimpleDB, and
SQS.  This generator synthesizes a stream with the same gross statistics:
compiler/linker process nodes rich in argv/env, object-file nodes with a
few inputs each, and header files read by many compilation units —
averaging ~110 bytes per record and ~7 records per node-version, so
50 MB works out to ~65 k node-versions / ~450 k records.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.provenance.graph import NodeRef
from repro.provenance.records import ProvenanceRecord

#: Common kernel source directories, used for plausible path shapes.
_DIRS = (
    "arch/x86/kernel", "drivers/net", "drivers/char", "fs/ext3", "fs/proc",
    "kernel", "mm", "net/ipv4", "net/core", "lib", "sound/pci", "block",
)

_CC_ENV = (
    "PATH=/usr/local/sbin:/usr/local/bin:/usr/sbin:/usr/bin:/sbin:/bin:"
    "/usr/games:/opt/cross/bin:/home/builder/bin:/usr/lib/ccache/bin",
    "HOME=/home/builder/workspaces/kernel-2.6.23.17/build-area/output",
    "LD_LIBRARY_PATH=/usr/local/lib:/usr/lib:/lib:/opt/toolchain/lib:"
    "/opt/toolchain/lib64:/usr/lib/x86_64-linux-gnu/ccache",
    "MAKEFLAGS=-j2 --no-print-directory -- KBUILD_VERBOSE=0 ARCH=x86 "
    "CROSS_COMPILE= INSTALL_MOD_PATH=/home/builder/mods",
    "PKG_CONFIG_PATH=/usr/local/lib/pkgconfig:/usr/lib/pkgconfig:"
    "/opt/toolchain/lib/pkgconfig:/usr/share/pkgconfig",
    "KBUILD_BUILD_TIMESTAMP=Wed Jan 13 11:42:07 EST 2010 build-host "
    "builder@ec2-medium (gcc version 4.1.2 20070925)",
)

_INCLUDE_FLAGS = (
    "-Iinclude -Iinclude/asm-x86/mach-default -Iarch/x86/include "
    "-D__KERNEL__ -Wall -Wundef -Wstrict-prototypes -Wno-trigraphs "
    "-fno-strict-aliasing -fno-common -Werror-implicit-function-declaration "
    "-Os -m32 -msoft-float -mregparm=3 -freg-struct-return "
    "-mpreferred-stack-boundary=2 -march=i686 -mtune=generic "
    "-ffreestanding -maccumulate-outgoing-args -DCONFIG_AS_CFI=1 "
    "-fomit-frame-pointer -fno-stack-protector -Wdeclaration-after-statement "
    "-Wno-pointer-sign -D\"KBUILD_STR(s)=#s\""
)


def make_linux_compile_records(
    target_bytes: int = 50 * 1024 * 1024,
    seed: int = 42,
) -> List[ProvenanceRecord]:
    """Generate at least ``target_bytes`` of encoded provenance records.

    The stream interleaves compilation units: each unit is a ``gcc``
    process node (argv + a few env records) plus an object-file node that
    depends on the process, its source file, and a handful of shared
    headers.  Returns the record list; ``sum(r.wire_size() for r in
    records)`` confirms the volume.
    """
    rng = random.Random(seed)
    records: List[ProvenanceRecord] = []
    total = 0

    # Shared headers: created once, referenced everywhere.
    headers: List[NodeRef] = []
    for index in range(200):
        ref = NodeRef(f"h-{index:05d}", 0)
        path = f"include/linux/{rng.choice(_DIRS).split('/')[-1]}-{index}.h"
        for record in (
            ProvenanceRecord(ref, "type", "file"),
            ProvenanceRecord(ref, "name", path),
        ):
            records.append(record)
            total += record.wire_size()
        headers.append(ref)

    unit = 0
    while total < target_bytes:
        directory = rng.choice(_DIRS)
        source = f"{directory}/unit{unit:06d}.c"
        obj = f"{directory}/unit{unit:06d}.o"

        src_ref = NodeRef(f"s-{unit:06d}", 0)
        cc_ref = NodeRef(f"p-{unit:06d}", 0)
        obj_ref = NodeRef(f"o-{unit:06d}", 0)

        source_sha = f"{rng.getrandbits(160):040x}"
        object_sha = f"{rng.getrandbits(160):040x}"
        batch: List[ProvenanceRecord] = [
            ProvenanceRecord(src_ref, "type", "file"),
            ProvenanceRecord(src_ref, "name", f"/usr/src/linux-2.6.23.17/{source}"),
            ProvenanceRecord(src_ref, "sha1", source_sha),
            ProvenanceRecord(src_ref, "mtime", "1263400927.331"),
            ProvenanceRecord(cc_ref, "type", "proc"),
            ProvenanceRecord(cc_ref, "name", "cc1"),
            ProvenanceRecord(cc_ref, "pid", str(3000 + unit)),
            ProvenanceRecord(cc_ref, "starttime", f"1263400{927 + unit % 1000}.112"),
            ProvenanceRecord(
                cc_ref,
                "argv",
                f"gcc -Wp,-MD,{obj}.d -nostdinc {_INCLUDE_FLAGS} -c -o {obj} {source}",
            ),
        ]
        for env in rng.sample(_CC_ENV, 4):
            batch.append(ProvenanceRecord(cc_ref, "env", env))
        batch.append(ProvenanceRecord(cc_ref, "input", src_ref))
        for header in rng.sample(headers, rng.randint(1, 4)):
            batch.append(ProvenanceRecord(cc_ref, "input", header))
        batch.extend(
            (
                ProvenanceRecord(obj_ref, "type", "file"),
                ProvenanceRecord(obj_ref, "name", f"/usr/src/linux-2.6.23.17/{obj}"),
                ProvenanceRecord(obj_ref, "sha1", object_sha),
                ProvenanceRecord(obj_ref, "mtime", "1263400931.007"),
                ProvenanceRecord(obj_ref, "input", cc_ref),
            )
        )

        for record in batch:
            records.append(record)
            total += record.wire_size()
        unit += 1

    return records


def records_total_bytes(records: List[ProvenanceRecord]) -> int:
    """Total wire bytes of a record stream."""
    return sum(record.wire_size() for record in records)
