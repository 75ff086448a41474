#!/usr/bin/env bash
# Sampling profile of one perfbench workload.  Run it from anywhere in the
# checkout:
#
#     scripts/profile.sh <workload> <seed> <seconds>
#     scripts/profile.sh paper_sweep 1 20
#
# It builds perfbench with line-table debug info and frame pointers
# (`-C force-frame-pointers=yes`) into target/profile (its own target
# directory, so the benchmark's build is untouched), then runs
# `perfbench --workload <workload> --seed <seed> --seconds <seconds> --trace 0`
# with a small sampler preloaded.  The sampler is a C shim built with the
# host's `cc`: a SIGPROF interval timer (ITIMER_PROF, every 1 ms of CPU time)
# whose handler, in the perfbench process only, records the interrupted
# program counter and, on x86_64 and on the main thread, up to 15 return
# addresses: the RBP chain, each frame bounded below by the sampled RSP and
# the frame before it and above by the stack's top, led (for a PC outside
# perfbench) by the first word above RSP that points into perfbench's code,
# since libc keeps no frame pointers.  Its buffer reserves 16 MiB (2^17
# samples of 128 B).  It writes /proc/self/maps and the samples at exit.
# The samples are then symbolised with `addr2line -f -i -C` and printed as
# five tables: the top functions by self samples (the innermost frame,
# inlined callees included), by outermost frame (the real, non-inlined
# function the PC was in), the samples outside perfbench's own binary
# (libc's memmove or malloc, say) by library and by the call site of their
# first frame inside perfbench, the samples in library code -- outside
# perfbench, or in an out-of-line alloc::, core:: or std:: function such as
# RawVec::finish_grow, __rust_alloc or a drop -- by the first frame outside
# alloc::, core:: and std:: (found by walking the PC's inlined chain and
# then each return address's, innermost first), which names the engine or
# report function that grew, cloned or dropped a vector, and the top
# functions by inclusive samples: every function anywhere in a sample's
# recorded stack (the PC's inlined chain and each return address's),
# counted once per sample however often it recurs, so a pass whose cost is
# spread over its callees shows whole.  A stack is cut at 15 return
# addresses, and a sample off the main thread keeps its PC alone, so an
# inclusive share is a lower bound, and such a sample in library code may
# name no frame outside it.  A sixth table splits the samples of
# SharingSimulator::step, and of the engine functions outlined from it
# (every real function between the PC and step is a
# versaslot_core::engine:: function, or library code at the PC), by their
# inlined call path below step, outermost first, such as
# "flush_pass > launch_sweep_app > launch > push": alloc::, core:: and std::
# frames and closures are left out of a path except as its innermost frame,
# and a sample on step's own lines reads "(step's own lines)".
#
# Needs cc, addr2line, readelf and python3.  CI only checks this script's
# syntax (`bash -n`); it never runs it.  Neither the crates nor perfbench
# are changed.
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

CARGO_PROFILE_RELEASE_DEBUG=line-tables-only RUSTFLAGS="-C force-frame-pointers=yes" cargo build --release --offline --quiet \
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

/* A sample is its PC and up to MAX_FRAMES return addresses: 16 words of 8
 * bytes, so the buffer reserves MAX_SAMPLES * 128 B = 16 MiB of zeroed
 * memory, of which only the pages of recorded samples become resident (a
 * 20 s run records ~20k samples, ~2.5 MiB). */
#define MAX_SAMPLES (1u << 17)
#define MAX_FRAMES 15
/* Words above the sampled RSP searched for a return address into perfbench
 * when the PC is outside it. */
#define SCAN_WORDS 64

static uintptr_t samples[MAX_SAMPLES][1 + MAX_FRAMES];
static size_t count;
static pid_t owner;
/* perfbench's executable mapping and the top of the main thread's stack,
 * read from /proc/self/maps at start-up. */
static uintptr_t text_lo, text_hi, stack_top;

static int in_text(uintptr_t address) {
    return address >= text_lo && address < text_hi;
}

static void on_prof(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    if (getpid() != owner) {
        return;
    }
    ucontext_t *uc = context;
    size_t slot = __atomic_fetch_add(&count, 1, __ATOMIC_RELAXED);
    if (slot >= MAX_SAMPLES) {
        return;
    }
    uintptr_t *sample = samples[slot];
#if defined(__x86_64__)
    uintptr_t sp = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP];
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
    sample[0] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
    /* Only the main thread's stack is known to be mapped from RSP up to
     * stack_top; a sample on another thread keeps its PC alone. */
    if (sp >= stack_top || stack_top - sp > (64u << 20)) {
        return;
    }
    size_t depth = 0;
    /* A function outside perfbench (libc's memmove, malloc, ...) keeps no
     * frame pointer, so its caller is the first word above RSP that points
     * into perfbench's code. */
    if (!in_text(sample[0])) {
        const uintptr_t *word = (const uintptr_t *)sp;
        for (size_t i = 0; i < SCAN_WORDS && sp + 8 * (i + 1) <= stack_top; i++) {
            if (in_text(word[i])) {
                sample[1 + depth++] = word[i];
                break;
            }
        }
    }
    /* The RBP chain: each frame is [saved RBP, return address] and must lie
     * above the sampled RSP, above the frame before it and inside the
     * stack. */
    uintptr_t floor = sp;
    while (depth < MAX_FRAMES && fp >= floor && fp % 8 == 0 && fp + 16 <= stack_top) {
        const uintptr_t *frame = (const uintptr_t *)fp;
        if (frame[1] == 0) {
            break;
        }
        sample[1 + depth++] = frame[1];
        floor = fp + 16;
        fp = frame[0];
    }
#elif defined(__aarch64__)
    sample[0] = (uintptr_t)uc->uc_mcontext.pc;
#else
#error "unsupported architecture"
#endif
}

/* Reads perfbench's executable mapping and the main thread's stack top. */
static void read_maps(void) {
    char exe[4096];
    ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    if (len <= 0) {
        return;
    }
    exe[len] = '\0';
    FILE *maps = fopen("/proc/self/maps", "r");
    if (maps == NULL) {
        return;
    }
    char line[4096 + 256];
    while (fgets(line, sizeof line, maps) != NULL) {
        unsigned long lo, hi;
        char perms[8];
        int path_at = 0;
        if (sscanf(line, "%lx-%lx %7s %*s %*s %*s %n", &lo, &hi, perms, &path_at) < 3 ||
            path_at == 0) {
            continue;
        }
        char *path = line + path_at;
        path[strcspn(path, "\n")] = '\0';
        if (perms[2] == 'x' && strcmp(path, exe) == 0) {
            text_lo = lo;
            text_hi = hi;
        } else if (strcmp(path, "[stack]") == 0) {
            stack_top = hi;
        }
    }
    fclose(maps);
}

__attribute__((constructor)) static void start(void) {
    /* Children (perfbench runs `git`) neither load nor inherit the sampler. */
    unsetenv("LD_PRELOAD");
    owner = getpid();
    read_maps();
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
    /* One line per sample: "PC <pc> <return address>...", innermost first. */
    size_t total = count < MAX_SAMPLES ? count : MAX_SAMPLES;
    for (size_t i = 0; i < total; i++) {
        fprintf(out, "PC %lx", (unsigned long)samples[i][0]);
        for (size_t f = 1; f <= MAX_FRAMES && samples[i][f] != 0; f++) {
            fprintf(out, " %lx", (unsigned long)samples[i][f]);
        }
        fputc('\n', out);
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
import functools
import os
import subprocess
import sys

raw, binary, segments_path = sys.argv[1:]
binary = os.path.realpath(binary)

# Executable mappings: (start, end, file offset, path), and each sample's PC
# followed by its return addresses, innermost first.
maps, stacks = [], []
for line in open(raw):
    if line.startswith("PC "):
        stacks.append([int(word, 16) for word in line.split()[1:]])
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

@functools.lru_cache(maxsize=None)
def locate(address):
    """(perfbench address, None) for an address in perfbench's code, else
    (None, the library's name)."""
    for start, end, offset, path in maps:
        if start <= address < end:
            if os.path.realpath(path) == binary:
                vaddr = vaddr_of(address - start + offset)
                if vaddr is not None:
                    return vaddr, None
            return None, os.path.basename(path)
    return None, "[unmapped]"

per_pc = collections.Counter()
other = collections.Counter()
# Samples outside perfbench, by library and the call site of their first
# frame inside perfbench (a return address less one is inside its call).
callers = collections.Counter()
for pc, *returns in stacks:
    vaddr, library = locate(pc)
    if vaddr is not None:
        per_pc[vaddr] += 1
        continue
    other[library] += 1
    site = next((v - 1 for v, _ in map(locate, returns) if v is not None), None)
    callers[library, site] += 1

# Every return address inside perfbench, less one so it falls inside its call.
return_sites = {
    vaddr - 1
    for _, *returns in stacks
    for vaddr, _ in map(locate, returns)
    if vaddr is not None
}
addresses = sorted(
    set(per_pc) | {site for _, site in callers if site is not None} | return_sites
)
text = subprocess.run(
    ["addr2line", "-a", "-f", "-i", "-C", "-e", binary],
    input="".join(f"{a:x}\n" for a in addresses),
    capture_output=True, text=True, check=True,
).stdout.splitlines()

# addr2line -a prints each address, then (function, location) pairs from the
# innermost inlined frame out to the real function.
frames, locations, current = {}, {}, None
i = 0
while i < len(text):
    if text[i].startswith("0x"):
        current = int(text[i], 16)
        frames[current], locations[current] = [], []
        i += 1
    else:
        frames[current].append(text[i])
        locations[current].append(text[i + 1] if i + 1 < len(text) else "")
        i += 2

total = len(stacks)
inner, outer = collections.Counter(), collections.Counter()
for address, n in per_pc.items():
    chain = frames.get(address) or ["??"]
    inner[chain[0]] += n
    outer[chain[-1]] += n
for name, n in other.items():
    inner[f"[{name}]"] += n
    outer[f"[{name}]"] += n

# Inclusive: each function in a sample's PC chain or return-address chains,
# once per sample.
inclusive = collections.Counter()
for pc, *returns in stacks:
    vaddr, library = locate(pc)
    names = {f"[{library}]"} if vaddr is None else set(frames.get(vaddr) or ["??"])
    for site, _ in map(locate, returns):
        if site is not None:
            names.update(frames.get(site - 1) or ["??"])
    inclusive.update(names)

def table(title, counter, rows=30):
    print(f"\n{title}")
    for name, n in counter.most_common(rows):
        print(f"{100 * n / total:6.2f}% {n:7d}  {name[:140]}")

def call_site(site):
    """The inlined function at a call site, and the real function it is in."""
    if site is None:
        return "[no frame in perfbench]"
    chain = frames.get(site) or ["??"]
    return chain[0] if len(chain) == 1 else f"{chain[0]} in {chain[-1]}"

by_caller = collections.Counter()
for (library, site), n in callers.items():
    by_caller[f"[{library}] <- {call_site(site)}"] += n

# Samples in library code -- outside perfbench (libc's malloc, memmove) or in
# an out-of-line alloc::, core:: or std:: function compiled into it
# (RawVec::finish_grow, __rust_alloc, a drop) -- by the first frame outside
# those crates: the PC's inlined chain and then each return address's,
# innermost first.  This names the function that grew, cloned or dropped a
# vector, not the allocator.
STD_PREFIXES = ("alloc::", "core::", "std::", "<alloc::", "<core::", "<std::", "__rust")

def in_std(name, location):
    return name.startswith(STD_PREFIXES) or location.startswith("/rustc/")

def std_chain(vaddr):
    """The (function, location) pairs at `vaddr`, innermost first."""
    return zip(frames.get(vaddr) or ["??"], locations.get(vaddr) or [""])

by_user_frame, first_std = collections.Counter(), {}
for pc, *returns in stacks:
    vaddr, library = locate(pc)
    if vaddr is None:
        leaf = f"[{library}]"
    else:
        leaf = (frames.get(vaddr) or ["??"])[-1]
        if not in_std(leaf, (locations.get(vaddr) or [""])[-1]):
            continue
    chains = [] if vaddr is None else [std_chain(vaddr)]
    chains += [std_chain(site - 1) for site, _ in map(locate, returns) if site is not None]
    user = next(
        (name for chain in chains for name, location in chain if not in_std(name, location)),
        "[no frame outside alloc::, core::, std:: in the recorded stack]",
    )
    by_user_frame[user] += 1
    first_std.setdefault(user, collections.Counter())[leaf] += 1

def with_leaf(user):
    leaf, _ = first_std[user].most_common(1)[0]
    return f"{user[:100]}  <- mostly {leaf[:60]}"

print(f"{total} samples ({len(per_pc)} distinct PCs in perfbench)")
table("top functions by self samples (innermost frame)", inner)
table("top functions by outermost frame", outer)
table("samples outside perfbench by their first frame inside it", by_caller)
table(
    "samples in libc or alloc::/core::/std:: by the first frame outside alloc::, core::, std::",
    collections.Counter({with_leaf(user): n for user, n in by_user_frame.items()}),
)
table("top functions by inclusive samples (anywhere in the stack, once per sample)", inclusive, rows=60)

# Samples of SharingSimulator::step and of the engine functions outlined from
# it, by inlined call path below step.
STEP = "versaslot_core::engine::SharingSimulator::step"

def segments(name):
    """A frame's path segments, without generic arguments."""
    depth, kept = 0, []
    for i, ch in enumerate(name):
        if ch == "<":
            depth += 1
        elif ch == ">" and name[i - 1 : i] != "-":
            depth -= 1
        elif depth == 0:
            kept.append(ch)
    return [s for s in "".join(kept).split("::") if s] or [name]

def short(name):
    """A frame's last path segment that names no closure."""
    parts = segments(name)
    return next((s for s in reversed(parts) if not is_closure(s)), parts[-1])

def is_closure(segment):
    """Whether a path segment names a closure: {closure#0} or {{closure}}."""
    return segment.startswith("{closure#") or segment == "{{closure}}"

def step_path(pc, returns):
    """The call path below step, outermost first, or None for a sample
    outside step and the engine functions outlined from it."""
    vaddr, library = locate(pc)
    levels = [[(f"[{library}]", "")]] if vaddr is None else [list(std_chain(vaddr))]
    levels += [list(std_chain(site - 1)) for site, _ in map(locate, returns) if site is not None]
    path = []
    for depth, level in enumerate(levels):
        names = [name for name, _ in level]
        if STEP in names:
            path += level[: names.index(STEP)]
            break
        if not (names[-1].startswith("versaslot_core::engine::") or (depth == 0 and vaddr is None)):
            return None
        path += level
    else:
        return None
    kept = []
    for i, (name, location) in enumerate(path):
        if i > 0 and (in_std(name, location) or is_closure(segments(name)[-1])):
            continue
        label = short(name)
        if not kept or kept[-1] != label:
            kept.append(label)
    return " > ".join(reversed(kept)) or "(step's own lines)"

by_step_path = collections.Counter()
for pc, *returns in stacks:
    path = step_path(pc, returns)
    if path is not None:
        by_step_path[path] += 1
print(f"\nSharingSimulator::step and the engine functions outlined from it: "
      f"{100 * sum(by_step_path.values()) / total:.2f}% of samples")
table("samples of step by inlined call path below it (outermost first)", by_step_path, rows=40)

EOF
