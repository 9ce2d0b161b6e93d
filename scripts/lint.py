#!/usr/bin/env python3
"""Repo-specific lint pass for LogBase (see DESIGN.md "Correctness tooling").

Rules enforced over src/ (and, where noted, the whole tree):

  wall-clock    No wall-clock time sources under src/. All time must flow
                through the simulation clock (sim::SimContext) so runs are
                deterministic and virtual-time tests stay meaningful. This
                explicitly covers src/fault/: fault schedules, backoff and
                nemesis runs operate on virtual time only.
  nondet        No nondeterministic randomness under src/
                (std::random_device, rand(), srand()). Jitter, fault plans
                and workloads draw from logbase::Random with an explicit
                seed so every chaos run replays bit-identically.
  raw-new      No raw `new` / `delete` outside the allowlist. Ownership is
                expressed with std::unique_ptr / std::make_unique; the only
                tolerated raw `new` is the intentionally-leaked
                function-local static singleton idiom.
  deprecated    No call sites of the removed flat client API
                (GetVersioned/TxnRead/...). ReadOptions-based reads and the
                Txn handle are the only client surface; the rule keeps the
                old spellings from creeping back in.
  mutex        Every mutex under src/ is an OrderedMutex /
                OrderedSharedMutex so the ranked lock-order checker sees it
                (src/fault/ included: the injector's state lock carries
                lockrank::kFaultState). Leaf-level exceptions are
                allowlisted explicitly.
  guarded-by   In any class owning an OrderedMutex, mutable data members
                must carry GUARDED_BY so clang's -Wthread-safety actually
                polices them; deliberate escapes live in an explicit
                file#member allowlist, each with a justifying comment at
                the declaration site.
  nodiscard    Status and Result<T> stay [[nodiscard]] so ignored error
                returns fail the build (-Werror=unused-result).
  write-path    Under src/tablet/ and src/txn/, only TabletServer::Submit
                appends to a LogWriter (Submit/Append/AppendBatch on a
                `writer*` receiver). Puts, deletes and transaction records
                share that one mutation batch, so every write is logged,
                made durable, then published, in that order.
  read-buffer   Under src/tablet/ and src/replica/, only
                src/tablet/read_path.cc looks up the read buffer
                (`buffer_.Get(` / `buffer->Get(`). Point and range reads on
                both server kinds share its one rule for when a buffered
                value may answer and when a fetch may fill the buffer.
  reassign      Under src/, only src/master/master.cc names the
                reassignment intent path (kMetaReassign / ReassignPath) or
                calls CommitReassignLocked; meta_codec.h and master.h only
                declare them. Outside src/tablet/, TabletServer::AdoptTablet
                is called from one site, in master.cc. Migrations, splits,
                failure adoption and failover roll-forward share that one
                intent-adopt-commit-reconcile routine.
  actor-clock   Under src/ and bench/, only src/sim/ holds a collection of
                actor clocks (a container of sim::SimContext). Several
                actors are stepped by sim::Scheduler alone, smallest clock
                first, so no driver keeps its own round-robin or barrier.
  child-clock   Under src/ and bench/, only src/sim/ constructs a
                sim::SimContext. Work that overlaps in virtual time runs as
                sim::Fanout branches, several actors step through
                sim::Scheduler, and an actor that runs alone (a bench's load
                or timed phase included) installs a sim::ScopedClock, so no
                module hand-rolls a child clock.
  status-text   Under src/, only src/tablet/stale_route.cc matches a
                Status's message text (`ToString().find(`,
                `message().find(`). Callers tell statuses apart by code, and
                stale routes by tablet::IsStaleRoute, so no module spells
                another module's error text.
  rank-table    The rank table in DESIGN.md section 6.1 lists exactly the
                lockrank enum of src/util/ordered_mutex.h (same names, same
                numbers), and every rank names at least one OrderedMutex
                under src/. A rank left behind by a deleted lock, or a doc
                row the checker no longer has, fails the lint.
  stale-allowlist
                Every `file#member` in GUARDED_BY_ALLOWLIST names a file
                that exists and declares that member, and every path in
                MUTEX_ALLOWLIST exists, so an escape cannot outlive the
                code it excused.

Usage:
  lint.py [--root DIR]     lint the tree, exit non-zero on violations
  lint.py --self-test      run every rule against embedded bad snippets and
                           verify each one fires; exits non-zero otherwise

If clang-tidy is on PATH and a compile_commands.json exists under build/,
the curated .clang-tidy check set is run as an extra stage; absence of the
binary is not an error (the container does not ship it).
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile

# --------------------------------------------------------------------------
# helpers


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving line numbers.

    Good enough for regex linting: handles // and /* */ comments, "..." and
    '...' literals with escapes. Does not attempt raw strings (unused in
    this codebase).
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == '/' and i + 1 < n and text[i + 1] == '/':
            j = text.find('\n', i)
            if j == -1:
                j = n
            out.append(' ' * (j - i))
            i = j
        elif c == '/' and i + 1 < n and text[i + 1] == '*':
            j = text.find('*/', i + 2)
            j = n if j == -1 else j + 2
            out.append(''.join(ch if ch == '\n' else ' '
                               for ch in text[i:j]))
            i = j
        elif c in ('"', "'"):
            quote = c
            j = i + 1
            while j < n:
                if text[j] == '\\':
                    j += 2
                    continue
                if text[j] == quote or text[j] == '\n':
                    j += 1
                    break
                j += 1
            out.append(quote + ' ' * (j - i - 2) + (quote if j <= n else ''))
            i = j
        else:
            out.append(c)
            i += 1
    return ''.join(out)


class Violation:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        return '%s:%d: [%s] %s' % (self.path, self.line, self.rule,
                                   self.message)


def iter_lines(stripped):
    for lineno, line in enumerate(stripped.split('\n'), start=1):
        yield lineno, line


def read_file(root, rel):
    try:
        with open(os.path.join(root, rel), encoding='utf-8') as f:
            return f.read()
    except OSError:
        return None


def line_at(text, pos):
    return text.count('\n', 0, pos) + 1


# --------------------------------------------------------------------------
# rule: wall-clock

WALL_CLOCK_PATTERNS = [
    (re.compile(r'std::chrono::system_clock'), 'std::chrono::system_clock'),
    (re.compile(r'std::chrono::steady_clock'), 'std::chrono::steady_clock'),
    (re.compile(r'std::chrono::high_resolution_clock'),
     'std::chrono::high_resolution_clock'),
    (re.compile(r'\bgettimeofday\s*\('), 'gettimeofday()'),
    (re.compile(r'\bclock_gettime\s*\('), 'clock_gettime()'),
    (re.compile(r'(?<![\w:.])time\s*\(\s*(?:NULL|nullptr|0)\s*\)'),
     'time(NULL)'),
]

# Chrono *durations* stay allowed everywhere -- only clock *sources* are
# banned.


def check_wall_clock(path, rel, stripped):
    found = []
    for lineno, line in iter_lines(stripped):
        for pattern, what in WALL_CLOCK_PATTERNS:
            if pattern.search(line):
                found.append(Violation(
                    'wall-clock', rel, lineno,
                    '%s is a wall-clock source; use the simulation clock '
                    '(sim::SimContext::Now) so runs stay deterministic'
                    % what))
    return found


# --------------------------------------------------------------------------
# rule: nondet

NONDET_PATTERNS = [
    (re.compile(r'\bstd::random_device\b'), 'std::random_device'),
    (re.compile(r'(?<![\w:.])rand\s*\(\s*\)'), 'rand()'),
    (re.compile(r'(?<![\w:.])srand\s*\('), 'srand()'),
]

NONDET_ALLOWLIST = set()


def check_nondet(path, rel, stripped):
    if rel in NONDET_ALLOWLIST:
        return []
    found = []
    for lineno, line in iter_lines(stripped):
        for pattern, what in NONDET_PATTERNS:
            if pattern.search(line):
                found.append(Violation(
                    'nondet', rel, lineno,
                    '%s is nondeterministic; draw from logbase::Random '
                    'with an explicit seed so runs (and fault schedules) '
                    'replay identically' % what))
    return found


# --------------------------------------------------------------------------
# rule: raw-new

RAW_NEW = re.compile(r'(?<![\w_])new\s+[A-Za-z_][\w:]*\s*[({[]?')
RAW_DELETE = re.compile(r'(?<![\w_])delete(\s*\[\s*\])?\s+[A-Za-z_]')
# `static Foo* x = new Foo;` (also `*new` for reference singletons) -- the
# deliberate leaked-singleton idiom.
STATIC_SINGLETON = re.compile(r'\bstatic\b[^;]*=\s*\*?\s*new\b')
SMART_WRAP = re.compile(
    r'(?:unique_ptr|shared_ptr)\s*<[^;]*>\s*[\w(){ ]*\(\s*new\b|'
    r'\.reset\s*\(\s*new\b')

RAW_NEW_ALLOWLIST = set()


def check_raw_new(path, rel, stripped):
    if rel in RAW_NEW_ALLOWLIST:
        return []
    found = []
    lines = stripped.split('\n')
    for lineno, line in iter_lines(stripped):
        if RAW_NEW.search(line):
            # Factories with private constructors wrap `new T(...)` in a
            # unique_ptr on the line above; join a two-line window so the
            # wrap is visible to the regex.
            window = (lines[lineno - 2] + ' ' + line) if lineno >= 2 else line
            if STATIC_SINGLETON.search(window) or SMART_WRAP.search(window):
                continue
            found.append(Violation(
                'raw-new', rel, lineno,
                'raw `new`; use std::make_unique / std::make_shared (or '
                'the `static X* = new X` leaked-singleton idiom)'))
        if RAW_DELETE.search(line):
            found.append(Violation(
                'raw-new', rel, lineno,
                'raw `delete`; ownership must be expressed with smart '
                'pointers'))
    return found


# --------------------------------------------------------------------------
# rule: deprecated client API

# The flat versioned/txn client methods deprecated by the PR 2 API
# redesign and removed outright once the last call sites migrated;
# ReadOptions/Txn handles are the supported surface. The names
# GetVersioned/TxnRead/TxnWrite/TxnDelete existed only on the client, so
# any call site is a violation. GetAsOf legitimately exists on the index
# layer (MultiVersionIndex) and GetVersions on TabletServer, so those are
# only flagged on a client-shaped receiver. With the wrappers gone the
# compiler catches most spellings as plain unknown-member errors; the lint
# keeps them from being reintroduced wholesale.
DEPRECATED_CALLS = re.compile(
    r'(?:[.>]\s*(GetVersioned|TxnRead|TxnWrite|TxnDelete)\s*\(|'
    r'\bclient\w*(?:\.|->)\s*(GetAsOf|GetVersions)\s*\()')

# Empty since the wrappers were deleted; entries would be files that may
# legitimately spell the removed names (e.g. migration tooling).
# (The legacy no-WriteOptions Put/Delete overloads needed a dedicated
# argument-counting branch here while their [[deprecated]] shims existed;
# the shims are gone now, so any old-arity call is a plain compile error
# and the branch was retired with them.)
DEPRECATED_ALLOWLIST = set()


def check_deprecated(path, rel, stripped):
    if rel in DEPRECATED_ALLOWLIST:
        return []
    found = []
    for lineno, line in iter_lines(stripped):
        m = DEPRECATED_CALLS.search(line)
        if m:
            name = m.group(1) or m.group(2)
            found.append(Violation(
                'deprecated', rel, lineno,
                'call to deprecated client API %s(); use '
                'ReadOptions-based Get/Scan or the Txn handle' % name))
    return found


# --------------------------------------------------------------------------
# rule: mutex

STD_MUTEX = re.compile(r'\bstd::(mutex|shared_mutex|recursive_mutex|'
                       r'timed_mutex|recursive_timed_mutex)\b')

MUTEX_ALLOWLIST = {
    # The wrapper itself.
    'src/util/ordered_mutex.h',
    'src/util/ordered_mutex.cc',
    # B-link node latches: per-node, strictly hand-over-hand (the B-link
    # protocol never holds two latches except parent->child during descent,
    # which is inherently ordered by tree level, not by a static rank).
    'src/index/blink_tree.h',
    'src/index/blink_tree.cc',
}


def check_mutex(path, rel, stripped):
    if rel in MUTEX_ALLOWLIST:
        return []
    found = []
    for lineno, line in iter_lines(stripped):
        m = STD_MUTEX.search(line)
        if m:
            found.append(Violation(
                'mutex', rel, lineno,
                'std::%s bypasses the lock-order checker; use '
                'OrderedMutex / OrderedSharedMutex with a lockrank::Rank '
                '(or add a justified allowlist entry in scripts/lint.py)'
                % m.group(1)))
    return found


# --------------------------------------------------------------------------
# rule: guarded-by

# Applies to any file declaring an OrderedMutex / OrderedSharedMutex member:
# mutable data members in that file must carry a GUARDED_BY annotation so
# clang's -Wthread-safety actually polices them (an unannotated member is
# invisible to the analysis — silent coverage loss, not an error). Exempt by
# construction: const / static / atomic members, condition variables, and
# the mutexes themselves. Everything else that is deliberately unguarded
# (set-before-threads fields, internally-synchronized pointees, externally-
# synchronized state) needs a `file#member` allowlist entry below, which is
# the reviewable registry of every annotation escape.
ORDERED_MUTEX_MEMBER = re.compile(r'\bOrdered(?:Shared)?Mutex\s+\w+_\s*[{;]')

# A member-declaration statement starts at exactly two-space indent (class
# member depth in this codebase's style) and runs to its terminating ';'.
MEMBER_STMT_START = re.compile(r'^  [A-Za-z_]')

# The declared name: trailing-underscore identifier directly before the
# initializer / terminator (Google style; locals and parameters never match
# because statements inside function bodies are filtered out first).
MEMBER_NAME = re.compile(r'\b([A-Za-z]\w*_)\s*(?:=[^;]*|\{[^;{}]*\})?\s*;')

GUARDED_BY_EXEMPT = re.compile(
    r'\bconst\b|\bstatic\b|\bconstexpr\b|\bstd::atomic\b|'
    r'\bstd::condition_variable(?:_any)?\b|\bOrdered(?:Shared)?Mutex\b')

# file#member pairs that are deliberately not GUARDED_BY; every entry
# corresponds to a justifying comment at the declaration site.
GUARDED_BY_ALLOWLIST = {
    # Set in the ctor / Start() before any data-path thread exists, or only
    # touched on the single-threaded lifecycle (Start/Stop/Crash) path.
    'src/master/master.h#session_',
    'src/master/master.h#election_',
    'src/tablet/tablet.h#index_',
    'src/tablet/tablet.h#source_instance_',
    'src/tablet/tablet_server.h#session_',
    'src/tablet/tablet_server.h#writer_',
    'src/tablet/tablet_server.h#options_',
    'src/tablet/tablet_server.h#fs_',
    'src/replica/replica_server.h#options_',
    'src/replica/replica_server.h#fs_',
    'src/baselines/hbase/hbase_server.h#options_',
    'src/baselines/hbase/hbase_server.h#running_',
    'src/baselines/hbase/hbase_server.h#fs_',
    'src/baselines/hbase/hbase_server.h#block_cache_',
    'src/baselines/hbase/hbase_server.h#wal_',
    'src/lsm/lsm_tree.h#versions_',  # internally synchronized VersionSet
    'src/lsm/lsm_tree.h#internal_comparator_',
    'src/lsm/lsm_tree.h#internal_table_options_',
    # Wired once during cluster setup / construction, then read-only; the
    # client Txn handle and WriteBatch are confined to one thread by
    # contract.
    'src/client/client.h#replica_resolver_',
    'src/client/client.h#retry_',
    'src/client/client.h#txn_',
    'src/client/client.h#ops_',
    'src/client/client.h#client_',
    'src/fault/fault_injector.h#targets_',
    # Both FaultPlan::events_ (a single-threaded builder) and
    # FaultInjector::events_ (the schedule, fixed after the ctor).
    'src/fault/fault_injector.h#events_',
    # Set once via set_tenant during client setup, then read thread-
    # ambiently (qos::TenantScope) on every operation.
    'src/client/client.h#tenant_',
    # Internally synchronized members (their own ranked locks or latch
    # protocol); the owning class's mutex does not cover them.
    # The QoS front door: AdmissionController carries kQosAdmission.
    'src/tablet/tablet_server.h#admission_',
    'src/replica/replica_server.h#admission_',
    'src/tablet/tablet_server.h#buffer_',
    'src/replica/replica_server.h#buffer_',
    'src/obs/metrics.h#shards_',
    'src/sim/disk_model.h#resource_',
    'src/dfs/data_node.h#disk_',
    # The DFS writer's state, confined to the file's one writing thread;
    # the OrderedMutex in the same file belongs to the reader.
    'src/dfs/dfs.cc#w_',
    # A mutation batch's floor handle, confined like the batch to one
    # thread at a time; the registry it points at has its own ranked lock.
    'src/tablet/tablet_server.h#registry_',
    'src/tablet/tablet_server.h#floor_id_',
}


def check_guarded_by(path, rel, stripped):
    if not ORDERED_MUTEX_MEMBER.search(stripped):
        return []
    found = []
    lines = stripped.split('\n')
    for i, line in enumerate(lines):
        if not MEMBER_STMT_START.match(line):
            continue
        # Join continuation lines (wrapped declarations put GUARDED_BY or
        # long template arguments on the next line) up to the ';'.
        stmt = line
        j = i
        while ';' not in stmt and j + 1 < len(lines) and j - i < 5:
            j += 1
            stmt += ' ' + lines[j].strip()
        if ';' not in stmt:
            continue
        stmt = stmt[:stmt.index(';') + 1].strip()
        # Function bodies and declarations, not data members: anything with
        # a parameter list directly followed by a body / qualifier, or a
        # return statement swallowed from an inline accessor.
        if re.search(r'\)\s*(?:const\s*)?(?:override\s*)?[{;=]', stmt) or \
                re.search(r'\breturn\b|\busing\b|\btypedef\b', stmt):
            continue
        if 'GUARDED_BY' in stmt or GUARDED_BY_EXEMPT.search(stmt):
            continue
        m = MEMBER_NAME.search(stmt)
        if not m:
            continue
        name = m.group(1)
        if '%s#%s' % (rel, name) in GUARDED_BY_ALLOWLIST:
            continue
        found.append(Violation(
            'guarded-by', rel, i + 1,
            'member %s in a class owning an OrderedMutex has no GUARDED_BY '
            'annotation; annotate it (clang -Wthread-safety cannot police '
            'unannotated state) or add a justified file#member entry to '
            'GUARDED_BY_ALLOWLIST in scripts/lint.py' % name))
    return found


# --------------------------------------------------------------------------
# rule: nodiscard

def check_nodiscard(root):
    """Status and Result<T> must stay [[nodiscard]]."""
    found = []
    for rel, marker in (('src/util/status.h', re.compile(
            r'class\s+\[\[nodiscard\]\]\s+Status\b')),
                        ('src/util/result.h', re.compile(
            r'class\s+\[\[nodiscard\]\]\s+Result\b'))):
        text = read_file(root, rel)
        if text is None:
            found.append(Violation('nodiscard', rel, 1, 'file missing'))
        elif not marker.search(text):
            found.append(Violation(
                'nodiscard', rel, 1,
                'missing [[nodiscard]] on the class declaration; ignored '
                'error returns would compile again'))
    return found


# --------------------------------------------------------------------------
# rule: write-path

# Paper §3.6.1: append to the log, wait until the append is durable, then
# make the write visible. TabletServer::Submit is the single place under
# src/tablet/ and src/txn/ that appends to the server's LogWriter; recovery,
# checkpointing and compaction may Open/Flush/Roll it but never append. A
# second append path is how a delete once came to drop index entries before
# its INVALIDATE record was durable. LogWriters are named `writer*` in this
# codebase (members or accessors), which is what the receiver pattern keys
# on.
WRITE_PATH_DIRS = ('src/tablet/', 'src/txn/')
LOG_WRITER_APPEND = re.compile(
    r'\bwriter\w*(?:\(\))?\s*(?:->|\.)\s*(Submit|Append|AppendBatch)\s*\(')
WRITE_PATH_OWNER_FILE = 'src/tablet/tablet_server.cc'
WRITE_PATH_OWNER = re.compile(r'\bTabletServer::Submit\s*\(')


def function_body_lines(stripped, signature):
    """Line numbers of the first function definition matching `signature`,
    from its signature line to its closing brace (empty when absent)."""
    m = signature.search(stripped)
    if not m:
        return set()
    depth = 0
    for i in range(stripped.find('{', m.end()), len(stripped)):
        if stripped[i] == '{':
            depth += 1
        elif stripped[i] == '}':
            depth -= 1
            if depth == 0:
                first = stripped.count('\n', 0, m.start()) + 1
                last = stripped.count('\n', 0, i) + 1
                return set(range(first, last + 1))
    return set()


def check_write_path(path, rel, stripped):
    if not rel.startswith(WRITE_PATH_DIRS):
        return []
    owner = (function_body_lines(stripped, WRITE_PATH_OWNER)
             if rel == WRITE_PATH_OWNER_FILE else set())
    found = []
    for lineno, line in iter_lines(stripped):
        m = LOG_WRITER_APPEND.search(line)
        if m and lineno not in owner:
            found.append(Violation(
                'write-path', rel, lineno,
                'LogWriter::%s outside TabletServer::Submit; send the '
                'records through Submit / Wait / Publish so they share the '
                'one log-durable-publish path' % m.group(1)))
    return found


# --------------------------------------------------------------------------
# rule: read-buffer

# Paper §3.6.2: the read buffer answers a read only with the version the
# snapshot sees, and only a latest read may fill it. tablet::ReadPoint and
# tablet::ReadRange hold that rule for both server kinds; a second lookup
# site is how replica scans once skipped the buffer and how a replica as-of
# read once poisoned it. Buffers are named `buffer` in this codebase
# (members `buffer_`, parameters `buffer`).
READ_BUFFER_DIRS = ('src/tablet/', 'src/replica/')
READ_BUFFER_OWNER_FILE = 'src/tablet/read_path.cc'
READ_BUFFER_GET = re.compile(r'\bbuffer(?:_\s*\.|\s*->)\s*Get\s*\(')


def check_read_buffer(path, rel, stripped):
    if not rel.startswith(READ_BUFFER_DIRS) or rel == READ_BUFFER_OWNER_FILE:
        return []
    return [Violation('read-buffer', rel, lineno,
                      'read-buffer lookup outside src/tablet/read_path.cc; '
                      'read through tablet::ReadPoint / tablet::ReadRange so '
                      'both server kinds share one buffer rule')
            for lineno, line in iter_lines(stripped)
            if READ_BUFFER_GET.search(line)]


# --------------------------------------------------------------------------
# rule: reassign

# DESIGN.md §8.2: tablet migration, split and failure adoption are one
# reassignment routine, with one intent znode per parent tablet and one
# commit point, and a failover's roll-forward resumes that same routine.
# Another file that names the intent path or commits a reassignment is a
# second copy of that state machine, which is how a split and a migration of
# one tablet once ran at the same time (their intents lived in two
# directories). A second adoption site is how failure handling once
# persisted an assignment before the adopter's checkpoint named the tablet.
REASSIGN_OWNER_FILE = 'src/master/master.cc'
REASSIGN_DECL_FILES = ('src/master/meta_codec.h', 'src/master/master.h')
REASSIGN_USE = re.compile(
    r'\b(kMetaReassign|ReassignPath|CommitReassign(?:Locked)?)\b')
ADOPT_CALL = re.compile(r'\bAdoptTablet\s*\(')


def check_reassign(path, rel, stripped):
    if not rel.startswith('src/'):
        return []
    found = []
    adopt_sites = 0
    for lineno, line in iter_lines(stripped):
        if not rel.startswith('src/tablet/') and ADOPT_CALL.search(line):
            adopt_sites += 1
            if rel != REASSIGN_OWNER_FILE or adopt_sites > 1:
                found.append(Violation(
                    'reassign', rel, lineno,
                    'AdoptTablet call outside the reassignment routine in '
                    'src/master/master.cc; move tablets through '
                    'Master::MigrateTablet / SplitTablet / '
                    'HandleServerFailure so every adopter checkpoints before '
                    'the commit'))
        if rel in (REASSIGN_OWNER_FILE,) + REASSIGN_DECL_FILES:
            continue
        m = REASSIGN_USE.search(line)
        if m:
            found.append(Violation(
                'reassign', rel, lineno,
                '%s outside src/master/master.cc; move tablets through the'
                ' master\'s reassignment routine so migrations, splits and'
                ' failure adoption share one intent and one commit point'
                % m.group(1)))
    return found


# --------------------------------------------------------------------------
# rule: actor-clock

# A bench phase with several simulated actors steps them through
# sim::Scheduler: always the smallest clock, ties in add order. A driver
# that keeps its own container of clocks is a second scheduler, and the
# hand-rolled ones (round-robin passes, frontier barriers) are how calls
# once reached the FCFS resources out of virtual-time order. src/sim/ owns
# the scheduler, so it alone may hold such a container.
ACTOR_CLOCK_DIRS = ('src/', 'bench/')
ACTOR_CLOCK_OWNER_DIR = 'src/sim/'
ACTOR_CLOCK_COLLECTION = re.compile(
    r'\b(?:vector|deque|list|array|map|unordered_map|priority_queue)\s*<'
    r'[^;]*\bSimContext\b|\bSimContext\s+\w+\s*\[')


def check_actor_clock(path, rel, stripped):
    if not rel.startswith(ACTOR_CLOCK_DIRS) or \
            rel.startswith(ACTOR_CLOCK_OWNER_DIR):
        return []
    return [Violation('actor-clock', rel, lineno,
                      'collection of SimContext clocks outside src/sim/; add '
                      'each actor to a sim::Scheduler instead')
            for lineno, line in iter_lines(stripped)
            if ACTOR_CLOCK_COLLECTION.search(line)]


# --------------------------------------------------------------------------
# rule: child-clock

# A module that builds its own SimContext to overlap work (a scatter, a 2PC
# round, an off-path release) is one more copy of the rule for where each
# branch starts and what the caller waits for. sim::Fanout owns that rule,
# sim::Scheduler steps actors and sim::ScopedClock gives a lone actor its
# clock, so only src/sim/ constructs a SimContext; a bench phase that runs
# one actor takes a ScopedClock too. Pointers, references and the static
# members (Current, Scope) stay allowed everywhere.
CHILD_CLOCK_DIRS = ('src/', 'bench/')
CHILD_CLOCK_OWNER_DIR = 'src/sim/'
CHILD_CLOCK_CONSTRUCT = re.compile(
    r'\bSimContext\b(?!\s*(?:[*&:>]))\s*(?:\w+\s*)?[({;=]'
    r'|\b(?:make_unique|make_shared|optional)\s*<\s*(?:sim::)?SimContext\s*>'
    r'|\bnew\s+(?:sim::)?SimContext\b')


def check_child_clock(path, rel, stripped):
    if not rel.startswith(CHILD_CLOCK_DIRS) or \
            rel.startswith(CHILD_CLOCK_OWNER_DIR):
        return []
    return [Violation('child-clock', rel, lineno,
                      'sim::SimContext constructed outside src/sim/; run '
                      'overlapping work as sim::Fanout branches (or a lone '
                      'actor under sim::ScopedClock)')
            for lineno, line in iter_lines(stripped)
            if CHILD_CLOCK_CONSTRUCT.search(line)]


# --------------------------------------------------------------------------
# rule: status-text

# A caller that finds a substring in another module's error message breaks
# silently when that text changes, and each such match is one more copy of
# the rule that decides what the status means. The tablet and replica
# servers build their stale-route answers in src/tablet/stale_route.cc and
# the client recognises them there, so that file alone may read the text.
STATUS_TEXT_OWNER_FILE = 'src/tablet/stale_route.cc'
STATUS_TEXT_MATCH = re.compile(
    r'\b(?:ToString|message)\s*\(\s*\)\s*\.\s*find\s*\(')


def check_status_text(path, rel, stripped):
    if not rel.startswith('src/') or rel == STATUS_TEXT_OWNER_FILE:
        return []
    return [Violation('status-text', rel, lineno,
                      'matching a Status message outside '
                      'src/tablet/stale_route.cc; test the status code, or '
                      'tablet::IsStaleRoute for a stale route')
            for lineno, line in iter_lines(stripped)
            if STATUS_TEXT_MATCH.search(line)]


# --------------------------------------------------------------------------
# rule: rank-table

# src/util/ordered_mutex.h holds the authoritative rank table and DESIGN.md
# section 6.1 mirrors it row for row. A rank that no OrderedMutex names is
# the leftover of a deleted lock; a row that differs from the enum is a doc
# that no longer describes the checker.
RANK_HEADER = 'src/util/ordered_mutex.h'
RANK_DOC = 'DESIGN.md'
RANK_ENUM = re.compile(r'\benum\s+Rank\b[^{]*\{([^}]*)\}')
RANK_ENTRY = re.compile(r'\b(k\w+)\s*=\s*(\d+)')
RANK_DOC_SECTION = re.compile(r'^### 6\.1 .*?(?=^#{2,3} |\Z)', re.M | re.S)
RANK_DOC_ROW = re.compile(r'^\|\s*(\d+)\s*\|\s*`(k\w+)`\s*\|', re.M)
RANK_USE = re.compile(
    r'\bOrdered(?:Shared)?Mutex\s+\w+\s*[{(]\s*lockrank::(k\w+)\b')


def check_rank_table(root):
    header = read_file(root, RANK_HEADER)
    doc = read_file(root, RANK_DOC)
    if header is None or doc is None:
        return [Violation('rank-table', RANK_HEADER if header is None
                          else RANK_DOC, 1, 'file missing')]
    header = strip_comments_and_strings(header)
    enum = RANK_ENUM.search(header)
    ranks = {}  # name -> (rank, line)
    if enum:
        for m in RANK_ENTRY.finditer(header, enum.start(1), enum.end(1)):
            ranks[m.group(1)] = (int(m.group(2)), line_at(header, m.start()))
    section = RANK_DOC_SECTION.search(doc)
    rows = {}
    if section:
        for m in RANK_DOC_ROW.finditer(doc, section.start(), section.end()):
            rows[m.group(2)] = (int(m.group(1)), line_at(doc, m.start()))
    if not ranks or not rows:
        return [Violation('rank-table', RANK_HEADER if not ranks else RANK_DOC,
                          1, 'no rank table found')]
    found = []
    for name in sorted(set(ranks) | set(rows)):
        code, row = ranks.get(name), rows.get(name)
        if row is None:
            found.append(Violation(
                'rank-table', RANK_DOC, 1,
                'lockrank::%s (%d) has no row in section 6.1'
                % (name, code[0])))
        elif code is None:
            found.append(Violation(
                'rank-table', RANK_DOC, row[1],
                'row %d %s is not in the lockrank enum' % (row[0], name)))
        elif code[0] != row[0]:
            found.append(Violation(
                'rank-table', RANK_DOC, row[1],
                '%s is %d here but %d in %s' % (name, row[0], code[0],
                                                RANK_HEADER)))
    used = set()
    for _path, rel, stripped in iter_sources(root, 'src'):
        if rel != RANK_HEADER:
            used.update(RANK_USE.findall(stripped))
    for name in sorted(set(ranks) - used):
        found.append(Violation(
            'rank-table', RANK_HEADER, ranks[name][1],
            'lockrank::%s names no OrderedMutex under src/; delete the rank '
            'and its DESIGN.md row' % name))
    return found


# --------------------------------------------------------------------------
# rule: stale-allowlist

# An allowlist entry whose file or member is gone excuses nothing today and
# silently excuses whatever reuses the name tomorrow.
def member_declared(stripped, member):
    return re.search(r'\b%s\s*(?:=[^;]*|\{[^;{}]*\})?\s*'
                     r'(?:GUARDED_BY\s*\([^)]*\)\s*)?;' % re.escape(member),
                     stripped) is not None


def check_stale_allowlist(root, guarded=None, mutex=None):
    guarded = GUARDED_BY_ALLOWLIST if guarded is None else guarded
    mutex = MUTEX_ALLOWLIST if mutex is None else mutex
    own = read_file(os.path.dirname(os.path.abspath(__file__)),
                    'lint.py') or ''

    def violation(entry, message):
        pos = own.find("'%s'" % entry)
        return Violation('stale-allowlist', 'scripts/lint.py',
                         line_at(own, pos) if pos >= 0 else 1,
                         '%r %s; delete the entry' % (entry, message))

    found = []
    for rel in sorted(mutex):
        if not os.path.isfile(os.path.join(root, rel)):
            found.append(violation(rel, 'names a missing file'))
    for entry in sorted(guarded):
        rel, _, member = entry.partition('#')
        text = read_file(root, rel)
        if text is None:
            found.append(violation(entry, 'names a missing file'))
        elif not member_declared(strip_comments_and_strings(text), member):
            found.append(violation(entry, 'names no member of %s' % rel))
    return found


# --------------------------------------------------------------------------
# driver

PER_FILE_RULES = [check_wall_clock, check_nondet, check_raw_new,
                  check_deprecated, check_mutex, check_guarded_by,
                  check_write_path, check_read_buffer, check_reassign,
                  check_actor_clock, check_child_clock, check_status_text]


def iter_sources(root, top):
    """Yields (path, relpath, stripped text) for each C++ file under top."""
    for dirpath, _dirnames, filenames in os.walk(os.path.join(root, top)):
        for name in sorted(filenames):
            if not name.endswith(('.h', '.cc', '.cpp', '.hpp')):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, '/')
            with open(path, encoding='utf-8') as f:
                yield path, rel, strip_comments_and_strings(f.read())


def lint_tree(root):
    violations = []
    for path, rel, stripped in iter_sources(root, 'src'):
        for rule in PER_FILE_RULES:
            violations.extend(rule(path, rel, stripped))
    # The deprecated-API rule also covers tests, examples and benches, so
    # the removed client calls stay removed there. Benches also step their
    # actors through sim::Scheduler and give a lone actor a
    # sim::ScopedClock (the clock rules skip tests/ and examples/ by path).
    for extra in ('tests', 'examples', 'bench'):
        for path, rel, stripped in iter_sources(root, extra):
            violations.extend(check_deprecated(path, rel, stripped))
            violations.extend(check_actor_clock(path, rel, stripped))
            violations.extend(check_child_clock(path, rel, stripped))
    violations.extend(check_nodiscard(root))
    violations.extend(check_rank_table(root))
    violations.extend(check_stale_allowlist(root))
    return violations


def run_clang_tidy(root):
    """Optional stage: run clang-tidy if available. Missing binary is OK."""
    tidy = shutil.which('clang-tidy')
    compdb = os.path.join(root, 'build', 'compile_commands.json')
    if tidy is None:
        print('lint: clang-tidy not on PATH; skipping tidy stage')
        return 0
    if not os.path.exists(compdb):
        print('lint: no build/compile_commands.json; skipping tidy stage')
        return 0
    files = []
    for dirpath, _d, filenames in os.walk(os.path.join(root, 'src')):
        files.extend(os.path.join(dirpath, n) for n in sorted(filenames)
                     if n.endswith('.cc'))
    proc = subprocess.run(
        [tidy, '-p', os.path.join(root, 'build'), '--quiet'] + files,
        capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
    return proc.returncode


# --------------------------------------------------------------------------
# self-test: every rule must fire on a seeded violation and stay quiet on
# the matching clean snippet.

SELF_TEST_CASES = [
    # (rule fn, relpath it pretends to be, bad snippet, clean snippet)
    (check_wall_clock, 'src/x/x.cc',
     'auto t = std::chrono::system_clock::now();',
     'auto t = ctx->Now();'),
    (check_wall_clock, 'src/x/x.cc',
     'gettimeofday(&tv, nullptr);',
     'std::chrono::milliseconds timeout(5);'),
    (check_wall_clock, 'src/x/x.cc',
     'time_t now = time(NULL);',
     'uint64_t now = sim->NowMicros();'),
    (check_nondet, 'src/fault/x.cc',
     'std::random_device rd;',
     'logbase::Random rnd(options.seed);'),
    (check_nondet, 'src/x/x.cc',
     'int r = rand() % 6;',
     'uint64_t r = rnd.Uniform(6);'),
    (check_nondet, 'src/x/x.cc',
     'srand(42);',
     'logbase::Random rnd(42);  // operand() and Random(...) are fine'),
    (check_raw_new, 'src/x/x.cc',
     'Foo* f = new Foo();',
     'auto f = std::make_unique<Foo>();'),
    (check_raw_new, 'src/x/x.cc',
     'delete f;',
     'f.reset();'),
    (check_raw_new, 'src/x/x.cc',
     'int* buf = new int[16];',
     'static Registry* r = new Registry();  // leaked singleton'),
    (check_deprecated, 'src/x/x.cc',
     'auto v = client->GetVersioned("t", 0, "k", 3);',
     'auto v = client->Get("t", 0, "k", opts);'),
    (check_deprecated, 'tests/x_test.cc',
     'ASSERT_TRUE(c.TxnWrite(txn, "t", 0, "k", "v").ok());',
     'ASSERT_TRUE(txn.Write("t", 0, "k", "v").ok());'),
    (check_deprecated, 'src/x/x.cc',
     'auto v = client->GetAsOf("t", 0, "k", 9);',
     'auto e = index->GetAsOf(key, 9);  // index layer, not client'),
    (check_mutex, 'src/x/x.h',
     'mutable std::mutex mu_;',
     'mutable OrderedMutex mu_{lockrank::kMasterState, "x.mu"};'),
    (check_mutex, 'src/x/x.h',
     'std::shared_mutex table_mu_;',
     'OrderedSharedMutex table_mu_{lockrank::kTabletServerTablets, "t"};'),
    # The balancer subsystem is covered by the same rules: its decisions
    # must be seeded (replayable nemesis runs) and its state lock ranked.
    (check_nondet, 'src/balance/balancer.cc',
     'std::random_device seed_source;',
     'uint64_t pick = rnd_.Uniform(n);  // seeded via BalancerOptions'),
    (check_wall_clock, 'src/balance/load_report.h',
     'uint64_t generated_at_us = time(nullptr);',
     'uint64_t generated_at_us = sim::CurrentVirtualTime();'),
    (check_mutex, 'src/balance/balancer.h',
     'mutable std::mutex mu_;',
     'mutable OrderedMutex mu_{lockrank::kBalancerState, "balancer.state"};'),
    # The replica subsystem serves bounded-staleness snapshots off virtual
    # time: its staleness clock, tablet lock and tailer cadence are all
    # subject to the same determinism rules.
    (check_wall_clock, 'src/replica/replica_server.cc',
     'uint64_t now = std::chrono::steady_clock::now().time_since_epoch()'
     '.count();',
     'sim::VirtualTime now = sim::CurrentVirtualTime();'),
    (check_mutex, 'src/replica/replica_server.h',
     'mutable std::shared_mutex tablets_mu_;',
     'mutable OrderedMutex mu_{lockrank::kReplicaServerTablets, '
     '"replica.server.tablets"};'),
    # The committed-record applier replays the log for recovery, adoption
    # and replica tailing alike; a random draw there would fork replays.
    (check_nondet, 'src/tablet/log_applier.cc',
     'if (rand() % 100 < jitter) return Status::OK();',
     'if (rnd.Uniform(100) < jitter) return Status::OK();'),
    # The group-commit write path: the log writer's batch window is a
    # virtual-time deadline, its batch sequence is a counter, and its open
    # batch rides the one ranked LogWriter mutex.
    (check_wall_clock, 'src/log/log_writer.cc',
     'auto deadline = std::chrono::steady_clock::now() + window;',
     'sim::VirtualTime deadline = open_.first_arrival_us + window_us;'),
    (check_mutex, 'src/log/log_writer.h',
     'mutable std::mutex flush_mu_;',
     'OpenBatch open_ GUARDED_BY(mu_);  // mu_ is lockrank::kLogWriter'),
    (check_nondet, 'src/log/log_writer.cc',
     'uint64_t batch_seq = rand();',
     'uint64_t batch_seq = next_batch_seq_++;'),
    # Thread-safety annotation coverage, pinned to the real subsystem
    # headers the rule polices: a class owning an OrderedMutex must carry
    # GUARDED_BY on its mutable members (or an explicit allowlist entry).
    (check_guarded_by, 'src/master/master.h',
     'mutable OrderedMutex mu_{lockrank::kMasterState, "m"};\n'
     '  std::map<std::string, TabletLocation> assignments_;',
     'mutable OrderedMutex mu_{lockrank::kMasterState, "m"};\n'
     '  std::map<std::string, TabletLocation> assignments_ GUARDED_BY(mu_);'),
    (check_guarded_by, 'src/replica/replica_server.h',
     'mutable OrderedMutex mu_{lockrank::kReplicaServerTablets, "r"};\n'
     '  std::map<std::string, TabletState> tablets_;',
     'mutable OrderedMutex mu_{lockrank::kReplicaServerTablets, "r"};\n'
     '  std::map<std::string, TabletState> tablets_\n'
     '      GUARDED_BY(mu_);'),
    (check_guarded_by, 'src/log/log_writer.h',
     'OrderedMutex mu_{lockrank::kLogWriter, "log.writer"};\n'
     '  uint64_t next_sequence_ = 1;',
     'OrderedMutex mu_{lockrank::kLogWriter, "log.writer"};\n'
     '  uint64_t next_sequence_ GUARDED_BY(mu_) = 1;\n'
     '  std::atomic<uint64_t> durable_{0};  // atomics need no guard'),
    # The query subsystem (scan pushdown) is pure evaluation code, but it is
    # policed by the same rules: plan/batch codecs and the executor charge
    # virtual time only (no wall clocks), sampling for any future
    # plan-choice heuristics must be seeded, and any cache it grows a lock
    # for must be ranked.
    (check_wall_clock, 'src/query/executor.cc',
     'auto scan_started = std::chrono::steady_clock::now();',
     'sim::ChargeCpu(n * sim::costs::kRecordCodecUs);'),
    (check_nondet, 'src/query/plan.cc',
     'uint64_t sampled_row = rand() % entries.size();',
     'uint64_t sampled_row = rnd.Uniform(entries.size());'),
    (check_mutex, 'src/query/executor.h',
     'mutable std::mutex plan_cache_mu_;',
     'mutable OrderedMutex plan_cache_mu_{lockrank::kClientCache, "q"};'),
    # The QoS subsystem (token buckets, admission control) is the most
    # determinism-sensitive code in the tree: every refill, wait and
    # retry-after hint is a pure function of the virtual clock, so wall
    # clocks and unseeded randomness are banned, and its lock
    # (kQosAdmission) must be ranked and its state annotated.
    (check_wall_clock, 'src/qos/token_bucket.cc',
     'auto refill_at = std::chrono::steady_clock::now();',
     'sim::VirtualTime refill_at = now;  // caller passes the sim clock'),
    (check_nondet, 'src/qos/admission.cc',
     'if (rand() % 2) return Status::OK();  // probabilistic shed',
     'const int64_t wait = bucket->WaitFor(ops, now);'),
    (check_mutex, 'src/qos/admission.h',
     'mutable std::mutex mu_;',
     'mutable OrderedMutex mu_{lockrank::kQosAdmission, "qos.admission"};'),
    (check_guarded_by, 'src/qos/admission.h',
     'mutable OrderedMutex mu_{lockrank::kQosAdmission, "qos.admission"};\n'
     '  std::map<std::string, Quota> quotas_;',
     'mutable OrderedMutex mu_{lockrank::kQosAdmission, "qos.admission"};\n'
     '  std::map<std::string, Quota> quotas_ GUARDED_BY(mu_);'),
    # One write path: only TabletServer::Submit appends to the LogWriter.
    # A delete that logs its own INVALIDATE, or a transaction manager that
    # appends its own records, is a second path.
    (check_write_path, 'src/tablet/tablet_server.cc',
     'Result<MutationBatch> TabletServer::Submit(std::vector<WriteOp> ops) {\n'
     '  auto ticket = writer_->Submit(&records, ack);\n'
     '}\n'
     'Status TabletServer::Delete(const std::string& uid, const Slice& k) {\n'
     '  auto ptr = writer_->Append(std::move(record), ack);\n'
     '}',
     'Result<MutationBatch> TabletServer::Submit(std::vector<WriteOp> ops) {\n'
     '  if (ops.empty()) { return MutationBatch{}; }\n'
     '  auto ticket = writer_->Submit(&records, ack);\n'
     '}\n'
     'Status TabletServer::Checkpoint() { return writer_->Flush(); }'),
    (check_write_path, 'src/txn/transaction_manager.cc',
     'LOGBASE_RETURN_NOT_OK(server->writer()->AppendBatch(&records, &ptrs));',
     'auto batch = p.server->Submit(std::move(p.ops), ack, stamp);'),
    # One buffer rule: a server that probes its own read buffer is a second
    # rule for which version the buffer may answer with.
    (check_read_buffer, 'src/replica/replica_server.cc',
     'if (buffer_.Get(tablet::BufferKey(uid, key), &cached)) return cached;',
     'buffer_.Put(tablet::BufferKey(uid, Slice(key)), record);'),
    (check_read_buffer, 'src/tablet/tablet_server.cc',
     'if (buffer_.Get(bkey, &cached) && cached.timestamp == ts) {',
     'auto result = ReadRange(*tablet->index(), &buffer_, uid, plan, as_of,\n'
     '                        rows, fetch, &scanned_bytes);'),
    (check_read_buffer, 'src/tablet/scan_helper.cc',
     'bool hit = buffer->Get(key, &cached);',
     'buffer->Invalidate(key);'),
    # One reassignment protocol: a balancer that commits its own split, or a
    # server that peeks at in-flight intents, is a second state machine.
    (check_reassign, 'src/balance/balancer.cc',
     'Status s = m->CommitReassignLocked(top_uid, {left, right});',
     'Status s = m->SplitTablet(top_uid, *key, cold);'),
    # One adoption site: a balancer that adopts on its own, or a master with
    # a second adopt loop (failure handling, reconcile), skips the routine's
    # checkpoint-before-commit rule.
    (check_reassign, 'src/balance/balancer.cc',
     'Status s = dst->AdoptTablet(child.descriptor, owner);',
     'Status s = m->MigrateTablet(pick, cold);'),
    (check_reassign, 'src/master/master.cc',
     's = dst[i]->AdoptTablet(children[i].descriptor, owner, &stats);\n'
     'LOGBASE_RETURN_NOT_OK(target->AdoptTablet(location.descriptor, dead));',
     's = dst[i]->AdoptTablet(children[i].descriptor, owner, &stats);\n'
     'LOGBASE_RETURN_NOT_OK(Reassign(dead, d, {child}, false));'),
    (check_reassign, 'src/tablet/tablet_server.cc',
     'if (tree->Exists(master::meta::ReassignPath(d.uid()))) continue;',
     'std::string path = master::meta::AssignPath(d.uid());'),
    (check_reassign, 'src/master/replica_admin.cc',
     'auto intents = znodes->GetChildren(meta::kMetaReassign);',
     'auto sets = znodes->GetChildren(meta::kMetaReplica);'),
    # One scheduler: a driver that keeps its own clocks steps them itself
    # (round-robin, frontier barrier, hand-written earliest-first pick).
    (check_actor_clock, 'src/workload/driver.cc',
     'std::vector<sim::SimContext> clients(nodes);',
     'sim::Scheduler sched;\n'
     'sched.Add(start, [&, c](sim::SimContext& ctx) { return Op(c, ctx); });'),
    (check_actor_clock, 'bench/bench_replica_scaling.cc',
     'std::vector<sim::SimContext> tailer_ctxs(num_replicas);',
     'sched.Add(sched.now(), [&cluster, i](sim::SimContext&) {\n'
     '  return false;\n'
     '});'),
    (check_actor_clock, 'bench/bench_qos_noisy_neighbor.cc',
     'sim::SimContext stream_ctx[kHostileStreams];',
     'sim::SimContext load_ctx(QuiesceTime(cluster.dfs(), '
     'cluster.network()));'),
    # One owner for overlapping virtual time: a hand-rolled child clock is a
    # second copy of sim::Fanout's start and join rule.
    (check_child_clock, 'src/client/client.cc',
     'sim::SimContext child(start);',
     'sim::Fanout scatter(kQueryFanout);\n'
     'auto part = scatter.Run([&] { return QueryTablet(route); });'),
    (check_child_clock, 'src/txn/lock_table.cc',
     'sim::SimContext release(ctx != nullptr ? ctx->now() : 0);',
     'sim::SimContext* ctx = sim::SimContext::Current();\n'
     'sim::SimContext::Scope scope(ctx);'),
    (check_child_clock, 'src/fault/nemesis.cc',
     'auto clock = std::make_unique<sim::SimContext>();',
     'sim::ScopedClock clock;\n'
     'sched.Add(0, [&](sim::SimContext& ctx) { return Step(ctx); });'),
    (check_child_clock, 'bench/bench_fig18_recovery.cc',
     'sim::SimContext load_ctx(QuiesceTime(fixture.dfs.get()));\n'
     'sim::SimContext::Scope scope(&load_ctx);',
     'sim::ScopedClock load_clock(QuiesceTime(fixture.dfs.get()));\n'
     'sim::SimContext* ctx = sim::SimContext::Current();'),
    # One stale-route rule: a client that greps a server's error text is a
    # second copy of it.
    (check_status_text, 'src/client/client.cc',
     'if (s.ToString().find("unknown tablet") != std::string::npos) {',
     'if (tablet::IsStaleRoute(s)) {'),
    (check_status_text, 'src/master/master.cc',
     'bool sealed = s.message().find("tablet sealed") == 0;',
     'bool sealed = s.IsUnavailable();'),
]


def seeded_tree(parent, files):
    """Writes {relpath: text} into a fresh directory under `parent`."""
    root = tempfile.mkdtemp(dir=parent)
    for rel, text in files.items():
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, 'w', encoding='utf-8') as f:
            f.write(text)
    return root


def report(tag, hits, want):
    """Prints one self-test line; returns 1 unless `want` hits were found."""
    if len(hits) != want:
        print('SELF-TEST FAIL: %s: %d hit(s), want %d' % (tag, len(hits),
                                                        want))
        for hit in hits:
            print('  %s' % hit)
        return 1
    print('self-test ok: %s (%d hit(s))' % (tag, want))
    return 0


def self_test():
    failures = 0
    for rule, rel, bad, good in SELF_TEST_CASES:
        bad_hits = rule(rel, rel, strip_comments_and_strings(bad))
        good_hits = rule(rel, rel, strip_comments_and_strings(good))
        tag = '%s on %r' % (rule.__name__, bad)
        if not bad_hits:
            print('SELF-TEST FAIL: %s did not fire' % tag)
            failures += 1
        elif good_hits:
            print('SELF-TEST FAIL: %s false-positives on %r'
                  % (rule.__name__, good))
            failures += 1
        else:
            print('self-test ok: %s' % tag)
    # Comment/string stripping must suppress matches.
    stripped = strip_comments_and_strings(
        '// std::chrono::system_clock in a comment\n'
        'const char* s = "new Foo";\n')
    if check_wall_clock('x', 'src/x/x.cc', stripped) or \
            check_raw_new('x', 'src/x/x.cc', stripped):
        print('SELF-TEST FAIL: comment/string stripping')
        failures += 1
    else:
        print('self-test ok: comments and strings are ignored')
    # The scheduler itself may hold the actors' clocks.
    if check_actor_clock('x', 'src/sim/scheduler.h', strip_comments_and_strings(
            'std::vector<std::unique_ptr<SimContext>> clocks_;')):
        print('SELF-TEST FAIL: actor-clock fires inside src/sim/')
        failures += 1
    else:
        print('self-test ok: actor-clock allows src/sim/')
    # src/sim/ itself builds the clocks its helpers hand out.
    if check_child_clock('x', 'src/sim/fanout.h', strip_comments_and_strings(
            'SimContext clock_;')):
        print('SELF-TEST FAIL: child-clock fires inside src/sim/')
        failures += 1
    else:
        print('self-test ok: child-clock allows src/sim/')
    # The stale-route helper itself may read the text it builds.
    if check_status_text('x', STATUS_TEXT_OWNER_FILE,
                         strip_comments_and_strings(
                             'return s.message().find(kTabletSealed) == 0;')):
        print('SELF-TEST FAIL: status-text fires inside its owner file')
        failures += 1
    else:
        print('self-test ok: status-text allows %s' % STATUS_TEXT_OWNER_FILE)
    with tempfile.TemporaryDirectory() as tmp:
        # rank-table: a consistent two-rank tree is clean; a missing row, a
        # renumbered row and a rank no mutex names each fire once.
        header = ('enum Rank : uint32_t {\n  kA = 10,  // A::mu_\n'
                  '  kB = 20,\n};\n')
        doc = ('### 6.1 Ranks\n\n| Rank | Name | Lock |\n|---|---|---|\n'
               '| 10 | `kA` | `A::mu_` |\n| 20 | `kB` | `B::mu_` |\n\n'
               '### 6.2 Next\n\n| 30 | `kC` | outside the section |\n')
        users = ('OrderedMutex a_{lockrank::kA, "a"};\n'
                 'mutable OrderedMutex b_{lockrank::kB,\n  "b"};\n')
        for label, d, u, want in (
                ('clean', doc, users, 0),
                ('missing row', doc.replace('| 20 | `kB` | `B::mu_` |\n', ''),
                 users, 1),
                ('renumbered row', doc.replace('| 20 |', '| 25 |'), users, 1),
                ('unused rank', doc, users.split('\n')[0], 1)):
            hits = check_rank_table(seeded_tree(tmp, {
                RANK_HEADER: header, RANK_DOC: d, 'src/x/x.h': u}))
            failures += report('check_rank_table on ' + label, hits, want)
        # stale-allowlist: entries that resolve are clean; a missing
        # member, or a missing file in either allowlist, each fire.
        root = seeded_tree(tmp, {
            'src/x/x.h': 'int* p_;  // the pointee is synchronized\n'
                         'std::map<int, int> m_\n    GUARDED_BY(mu_);\n'})
        for label, guarded, mutex, want in (
                ('clean', {'src/x/x.h#p_', 'src/x/x.h#m_'}, {'src/x/x.h'}, 0),
                ('missing member', {'src/x/x.h#q_'}, set(), 1),
                ('missing file', {'src/gone/y.h#p_'}, {'src/gone/y.h'}, 2)):
            hits = check_stale_allowlist(root, guarded, mutex)
            failures += report('check_stale_allowlist on ' + label, hits,
                               want)
        # nodiscard rule fires when the attribute is absent.
        hits = check_nodiscard(seeded_tree(tmp, {
            'src/util/status.h': 'class Status {};\n',
            'src/util/result.h': 'template <typename T>\nclass Result {};\n'}))
        failures += report('check_nodiscard when stripped', hits, 2)
    if failures:
        print('%d self-test failure(s)' % failures)
        return 1
    print('all lint self-tests passed')
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument('--root', default=None,
                        help='repo root (default: parent of this script)')
    parser.add_argument('--self-test', action='store_true',
                        help='verify every rule fires on seeded violations')
    parser.add_argument('--no-tidy', action='store_true',
                        help='skip the optional clang-tidy stage')
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    violations = lint_tree(root)
    for v in violations:
        print(v)
    rc = 0
    if violations:
        print('lint: %d violation(s)' % len(violations))
        rc = 1
    else:
        print('lint: clean')
    if not args.no_tidy:
        rc = rc or run_clang_tidy(root)
    return rc


if __name__ == '__main__':
    sys.exit(main())
