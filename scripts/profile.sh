#!/usr/bin/env bash
# Sampling profile of one perfbench workload.  Run it from anywhere in the
# checkout:
#
#     scripts/profile.sh <workload> <seed> <seconds>
#     scripts/profile.sh paper_sweep 1 20
#
# It builds perfbench with line-table debug info into target/profile (its own
# target directory, so the benchmark's build is untouched), then runs
# `perfbench --workload <workload> --seed <seed> --seconds <seconds> --trace 0`
# with a small sampler preloaded.  The sampler is a C shim built with the
# host's `cc`: a SIGPROF interval timer (ITIMER_PROF, every 1 ms of CPU time)
# whose handler records the interrupted program counter of the perfbench
# process only, and which writes /proc/self/maps and the samples at exit.
# The samples are then symbolised with `addr2line -f -i -C` and printed as two
# tables: the top functions by self samples (the innermost frame, inlined
# callees included) and by outermost frame (the real, non-inlined function the
# PC was in).  Samples outside perfbench's own binary are counted per library.
#
# Needs cc, addr2line, readelf and python3.  Nothing here runs in CI, and
# neither the crates nor perfbench are changed.
set -euo pipefail

if [[ $# -ne 3 ]]; then
    echo "usage: scripts/profile.sh <workload> <seed> <seconds>" >&2
    exit 2
fi
workload=$1
seed=$2
seconds=$3

cd "$(dirname "$0")/.."
out=target/profile
mkdir -p "$out"
raw="$PWD/$out/samples.txt"
rm -f "$raw"

CARGO_PROFILE_RELEASE_DEBUG=line-tables-only cargo build --release --offline --quiet \
    --manifest-path perfbench/Cargo.toml --target-dir "$out"
bin="$out/release/perfbench"

cat > "$out/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 22)

static uintptr_t samples[MAX_SAMPLES];
static size_t count;
static pid_t owner;

static void on_prof(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    if (getpid() != owner) {
        return;
    }
    ucontext_t *uc = context;
#if defined(__x86_64__)
    uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    uintptr_t pc = (uintptr_t)uc->uc_mcontext.pc;
#else
#error "unsupported architecture"
#endif
    size_t slot = __atomic_fetch_add(&count, 1, __ATOMIC_RELAXED);
    if (slot < MAX_SAMPLES) {
        samples[slot] = pc;
    }
}

__attribute__((constructor)) static void start(void) {
    /* Children (perfbench runs `git`) neither load nor inherit the sampler. */
    unsetenv("LD_PRELOAD");
    owner = getpid();
    struct sigaction action;
    memset(&action, 0, sizeof action);
    action.sa_sigaction = on_prof;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &action, NULL);
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void stop(void) {
    if (getpid() != owner) {
        return;
    }
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    FILE *out = fopen(SAMPLES_PATH, "w");
    if (out == NULL) {
        return;
    }
    int maps = open("/proc/self/maps", O_RDONLY);
    char buf[4096];
    ssize_t n;
    while (maps >= 0 && (n = read(maps, buf, sizeof buf)) > 0) {
        fwrite(buf, 1, (size_t)n, out);
    }
    if (maps >= 0) {
        close(maps);
    }
    size_t total = count < MAX_SAMPLES ? count : MAX_SAMPLES;
    for (size_t i = 0; i < total; i++) {
        fprintf(out, "PC %lx\n", (unsigned long)samples[i]);
    }
    fclose(out);
}
EOF
cc -O2 -shared -fPIC -DSAMPLES_PATH="\"$raw\"" -o "$out/sampler.so" "$out/sampler.c"

LD_PRELOAD="$PWD/$out/sampler.so" "$bin" \
    --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 > "$out/perfbench.out"
[[ -s $raw ]] || { echo "profile.sh: the sampler wrote no samples" >&2; exit 1; }

readelf -lW "$bin" > "$out/segments.txt"
python3 - "$raw" "$PWD/$bin" "$out/segments.txt" <<'EOF'
import collections
import os
import subprocess
import sys

raw, binary, segments_path = sys.argv[1:]
binary = os.path.realpath(binary)

# Executable mappings: (start, end, file offset, path).
maps, pcs = [], []
for line in open(raw):
    if line.startswith("PC "):
        pcs.append(int(line[3:], 16))
        continue
    fields = line.split()
    if len(fields) >= 6 and "x" in fields[1]:
        start, end = (int(x, 16) for x in fields[0].split("-"))
        maps.append((start, end, int(fields[2], 16), fields[5]))

# LOAD segments map file offsets to the addresses addr2line expects: in a PIE
# binary a segment's file offset and virtual address differ.
loads = []
for line in open(segments_path):
    fields = line.split()
    if fields and fields[0] == "LOAD":
        offset, vaddr, filesz = int(fields[1], 16), int(fields[2], 16), int(fields[4], 16)
        loads.append((offset, vaddr, filesz))

def vaddr_of(file_offset):
    for offset, vaddr, filesz in loads:
        if offset <= file_offset < offset + filesz:
            return file_offset - offset + vaddr
    return None

per_pc = collections.Counter()
other = collections.Counter()
for pc in pcs:
    for start, end, offset, path in maps:
        if start <= pc < end:
            if os.path.realpath(path) == binary:
                vaddr = vaddr_of(pc - start + offset)
                if vaddr is not None:
                    per_pc[vaddr] += 1
                    break
            other[os.path.basename(path)] += 1
            break
    else:
        other["[unmapped]"] += 1

addresses = sorted(per_pc)
text = subprocess.run(
    ["addr2line", "-a", "-f", "-i", "-C", "-e", binary],
    input="".join(f"{a:x}\n" for a in addresses),
    capture_output=True, text=True, check=True,
).stdout.splitlines()

# addr2line -a prints each address, then (function, location) pairs from the
# innermost inlined frame out to the real function.
frames, current = {}, None
i = 0
while i < len(text):
    if text[i].startswith("0x"):
        current = int(text[i], 16)
        frames[current] = []
        i += 1
    else:
        frames[current].append(text[i])
        i += 2

total = len(pcs)
inner, outer = collections.Counter(), collections.Counter()
for address, n in per_pc.items():
    chain = frames.get(address) or ["??"]
    inner[chain[0]] += n
    outer[chain[-1]] += n
for name, n in other.items():
    inner[f"[{name}]"] += n
    outer[f"[{name}]"] += n

def table(title, counter, rows=30):
    print(f"\n{title}")
    for name, n in counter.most_common(rows):
        print(f"{100 * n / total:6.2f}% {n:7d}  {name[:140]}")

print(f"{total} samples ({len(addresses)} distinct PCs in perfbench)")
table("top functions by self samples (innermost frame)", inner)
table("top functions by outermost frame", outer)
EOF
