"""Op clock, constructor capture and the traced pass, all from outside apexsim.

Every probe here replaces a name where its caller looks it up: a function is
replaced in every apexsim module that holds it (``vfs.transition_block``,
``workload.update_spatial_factors`` and so on), a method on its class. A name
the program no longer has is skipped, so its per-layer metrics read 0.
"""

import time

OP_SPAN = "op"


class Patcher:
    """Replaces attributes and puts every original back on exit."""

    def __init__(self, api):
        self.api = api
        self._undo = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def function(self, module, name, make):
        """Wrap the function ``module.name`` wherever apexsim holds it."""
        orig = getattr(getattr(self.api, module, None), name, None)
        if orig is None:
            return
        wrapped = make(orig)
        for mod in self.api.modules:
            if mod.__dict__.get(name) is orig:
                self._set(mod, name, wrapped)

    def method(self, module, cls, name, make):
        """Wrap the method ``module.cls.name`` on its class."""
        owner = getattr(getattr(self.api, module, None), cls, None)
        orig = owner.__dict__.get(name) if owner is not None else None
        if orig is not None:
            self._set(owner, name, make(orig))


class OpClock(Patcher):
    """Times each op from ``Disk.tick`` to the end of its spatial pass, times
    the speed kernel between ops, and keeps the file systems the body builds,
    for the checks."""

    def __init__(self, api, track):
        super().__init__(api)
        self.track = track
        self.samples = []  # (start_ns, duration_ns) per op
        self.ticks = 0
        self.first_fs = None
        self.last_fs = {}  # policy name -> last file system built
        self._start = None

    def __enter__(self):
        clock = self
        samples = self.samples

        def tick(orig):
            def wrapped(disk):
                orig(disk)
                clock.ticks += 1
                clock._start = time.perf_counter_ns()

            return wrapped

        def spatial(orig):
            def wrapped(disk):
                orig(disk)
                end = time.perf_counter_ns()
                if clock._start is not None:
                    samples.append((clock._start, end - clock._start))
                    clock._start = None
                    clock.track.maybe_mark(end)

            return wrapped

        def file_system(orig):
            def wrapped(*args, **kwargs):
                fs = orig(*args, **kwargs)
                if clock.first_fs is None:
                    clock.first_fs = fs
                clock.last_fs[fs.policy.name] = fs
                return fs

            return wrapped

        self.method("disk", "Disk", "tick", tick)
        self.function("priority", "update_spatial_factors", spatial)
        self.function("vfs", "FileSystem", file_system)
        return self

    def file_systems(self):
        out = [self.first_fs] if self.first_fs is not None else []
        return out + [fs for fs in self.last_fs.values() if fs is not self.first_fs]


class Tracer(Patcher):
    """Records a span around each wrapped call and counts at the same points.

    A span is (name, start_ns, end_ns, parent span index, op id); the op id is
    the disk tick. An op span opens at ``Disk.tick`` and closes when that op's
    spatial pass returns, so everything the op does nests under it.
    """

    def __init__(self, api):
        super().__init__(api)
        self.spans = []
        self.stack = []
        self.counts = {}  # "<span or counter>.<measure>" -> int
        self.op = 0

    def add(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _open(self, name):
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self.stack[-1] if self.stack else -1, self.op])
        self.stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][2] = time.perf_counter_ns()
        self.stack.pop()

    def span(self, name, before=None, after=None):
        """Wrapper factory: a span around each call. ``before(args)`` runs
        outside the span and returns state that ``after(args, result, state)``
        receives; both record counts. ``name`` may be a function of args."""
        tracer = self

        def make(orig):
            def wrapped(*args, **kwargs):
                state = before(args) if before else None
                sid = tracer._open(name(args) if callable(name) else name)
                try:
                    result = orig(*args, **kwargs)
                finally:
                    tracer._close(sid)
                if after:
                    after(args, result, state)
                return result

            return wrapped

        return make

    def counter(self, key):
        tracer = self

        def make(orig):
            def wrapped(*args, **kwargs):
                tracer.counts[key] = tracer.counts.get(key, 0) + 1
                return orig(*args, **kwargs)

            return wrapped

        return make

    def __enter__(self):
        t = self

        def tick(orig):
            def wrapped(disk):
                orig(disk)
                t.op = disk.clock
                t._open(OP_SPAN)

            return wrapped

        def spatial(orig):
            inner = t.span("priority.update_spatial_factors")(orig)

            def wrapped(disk):
                inner(disk)
                if t.stack and t.spans[t.stack[-1]][0] == OP_SPAN:
                    t._close(t.stack[-1])

            return wrapped

        def overwrite_before(args):
            disk, address = args[0], args[1]
            rec = disk.blocks[address].mrpf
            if rec is None:
                return None
            sibs = [s for s in rec.siblings if s != address]
            t.add("priority.record_overwrite_event.siblings_scanned", len(sibs))
            return sibs, int(disk.hf[sibs].sum())

        def overwrite_after(args, _result, state):
            if state is not None:
                sibs, before = state
                t.add("priority.record_overwrite_event.hf_bumps", int(args[0].hf[sibs].sum()) - before)

        def sweep_before(args):
            retired = args[0].deleted_files()
            t.add("vfs.mark_obsolete_sweep.files_checked", sum(1 for f in retired if f.status == "deleted"))
            t.counts["vfs.retired.files"] = max(t.counts.get("vfs.retired.files", 0), len(retired))

        def rr_before(args):
            files = args[1]
            t.add("recovery.weighted_rr.files_scanned", len(files))
            t.add("recovery.weighted_rr.live_files", sum(1 for f in files if f.status != "obsolete"))

        def retained(args, _result, _state):
            key = "workload.trace.entries"
            t.counts[key] = max(t.counts.get(key, 0), len(args[0].trace))

        def add_count(key, count):
            return lambda args, result, _state: t.add(key, count(args, result))

        self.method("disk", "Disk", "tick", tick)
        self.function("priority", "update_spatial_factors", spatial)
        self.method("disk", "Disk", "key_of", self.counter("disk.key_of.calls"))
        self.method("disk", "Disk", "rebuild_unused_keys", self.span("disk.rebuild_unused_keys"))
        self.method("disk", "Disk", "snapshot_sha256", self.span("disk.snapshot_sha256"))
        self.method("disk", "Disk", "set_hyperparams", self.counter("tuner.set_hyperparams.calls"))
        self.function("disk", "transition_block", self.span("disk.transition_block"))
        self.function("disk", "new_disk", self.span("disk.new_disk"))
        self.method("heap", "PriorityHeap", "reload", self.span(
            "heap.reload", after=lambda args, _r, _s: t.add("heap.reload.entries", len(args[0]))))
        self.method("heap", "PriorityHeap", "n_best", self.span("heap.n_best"))
        for name in ("insert", "remove", "update"):
            self.method("heap", "PriorityHeap", name, self.counter(f"heap.{name}.calls"))
        self.function("priority", "record_overwrite_event", self.span(
            "priority.record_overwrite_event", before=overwrite_before, after=overwrite_after))
        self.function("priority", "record_file_access", self.span("priority.record_file_access"))
        self.function("priority", "top_unused", self.span("priority.top_unused"))
        for cls in ("ApexPolicy", "FirstFitPolicy"):
            self.method("policies", cls, "select", self.span(
                lambda args: f"policies.select.{args[0].name}",
                after=lambda args, result, _s: t.add(f"policies.select.{args[0].name}.blocks", len(result))))
        self.method("vfs", "FileSystem", "create_file", self.span(
            "vfs.create_file", after=add_count("vfs.create_file.blocks", lambda a, r: len(r.block_list))))
        self.method("vfs", "FileSystem", "delete_file", self.span(
            "vfs.delete_file", after=add_count("vfs.delete_file.blocks", lambda a, r: len(r.block_list))))
        self.method("vfs", "FileSystem", "read_file", self.span("vfs.read_file"))
        self.method("vfs", "FileSystem", "write_file", self.span("vfs.write_file"))
        self.method("vfs", "FileSystem", "mark_obsolete_sweep", self.span(
            "vfs.mark_obsolete_sweep", before=sweep_before,
            after=add_count("vfs.mark_obsolete_sweep.flips", lambda a, r: r)))
        self.function("recovery", "weighted_rr", self.span("recovery.weighted_rr", before=rr_before))
        self.function("recovery", "access_time_term", self.span("recovery.access_time_term"))
        self.function("recovery", "recover_file", self.counter("recovery.recover_file.calls"))
        self.function("workload", "generate_op", self.span("workload.generate_op"))
        self.method("workload", "WorkloadRunner", "run", self.span("workload.run", after=retained))
        self.function("tuner", "train", self.span("tuner.train"))
        self.function("tuner", "_measure", self.span("tuner.measure"))
        self.function("tuner", "evaluate_policy", self.span("tuner.evaluate_policy"))
        self.function("compare", "run_cell", self.span(lambda args: f"compare.run_cell.{args[3]}"))
        self.function("config", "load_config", self.span("config.load_config"))
        return self

    def aggregate(self):
        """Per span name: calls, total ns and self ns (total minus the time
        its child spans cover). Also the mean interval under ``tuner.train``."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        agg = {}
        for sid, (name, start, end, parent, _op) in enumerate(self.spans):
            a = agg.setdefault(name, [0, 0, 0])
            a[0] += 1
            a[1] += end - start
            a[2] += end - start - child_ns[sid]
            if name == "workload.run" and parent >= 0 and self.spans[parent][0] == "tuner.train":
                b = agg.setdefault("tuner.interval", [0, 0, 0])
                b[0] += 1
                b[1] += end - start
        return agg

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("id,name,start_ns,end_ns,parent,op\n")
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{sid},{name},{start},{end},{parent},{op}\n")


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer, ops):
    """Per-layer metrics of one traced episode, as {name: (value, unit)}.

    ``count`` values are exact integers. ``ns`` values are host time: ``.ns``
    is the episode total, ``.ns_per_call`` a mean, ``self_ns`` excludes the
    time of child spans. A layer that does not run on the workload reads 0.
    """
    agg = tracer.aggregate()
    c = tracer.counts

    def calls(name):
        return agg.get(name, (0, 0, 0))[0]

    def total(name):
        return agg.get(name, (0, 0, 0))[1]

    def own(name):
        return agg.get(name, (0, 0, 0))[2]

    def per_call(name):
        return _ratio(total(name), calls(name))

    m = {
        "disk.key_of.calls": (c.get("disk.key_of.calls", 0), "count"),
        "disk.key_of.per_op": (_ratio(c.get("disk.key_of.calls", 0), ops), "calls/op"),
        "disk.rebuild_unused_keys.calls": (calls("disk.rebuild_unused_keys"), "count"),
        "disk.rebuild_unused_keys.ns": (total("disk.rebuild_unused_keys"), "ns"),
        "disk.transition_block.calls": (calls("disk.transition_block"), "count"),
        "disk.transition_block.ns_per_call": (per_call("disk.transition_block"), "ns"),
        "disk.new_disk.ns": (total("disk.new_disk"), "ns"),
        "disk.snapshot_sha256.ns": (total("disk.snapshot_sha256"), "ns"),
        "heap.reload.calls": (calls("heap.reload"), "count"),
        "heap.reload.entries": (c.get("heap.reload.entries", 0), "count"),
        "heap.reload.ns": (total("heap.reload"), "ns"),
        "heap.n_best.ns_per_call": (per_call("heap.n_best"), "ns"),
        "heap.insert.calls": (c.get("heap.insert.calls", 0), "count"),
        "heap.remove.calls": (c.get("heap.remove.calls", 0), "count"),
        "heap.update.calls": (c.get("heap.update.calls", 0), "count"),
        "priority.update_spatial_factors.calls": (calls("priority.update_spatial_factors"), "count"),
        "priority.update_spatial_factors.self_ns_per_call": (
            _ratio(own("priority.update_spatial_factors"), calls("priority.update_spatial_factors")), "ns"),
        "priority.record_overwrite_event.calls": (calls("priority.record_overwrite_event"), "count"),
        "priority.record_overwrite_event.siblings_scanned": (
            c.get("priority.record_overwrite_event.siblings_scanned", 0), "count"),
        "priority.record_overwrite_event.hf_bumps": (c.get("priority.record_overwrite_event.hf_bumps", 0), "count"),
        "priority.record_overwrite_event.bump_ratio": (
            _ratio(c.get("priority.record_overwrite_event.hf_bumps", 0),
                   c.get("priority.record_overwrite_event.siblings_scanned", 0)), "ratio"),
        "priority.record_overwrite_event.ns_per_call": (per_call("priority.record_overwrite_event"), "ns"),
        "priority.record_file_access.ns_per_call": (per_call("priority.record_file_access"), "ns"),
        "priority.top_unused.ns_per_call": (per_call("priority.top_unused"), "ns"),
    }
    for policy in ("apex", "first-fit"):
        name = f"policies.select.{policy}"
        blocks = c.get(f"{name}.blocks", 0)
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.blocks"] = (blocks, "count")
        m[f"{name}.ns_per_block"] = (_ratio(total(name), blocks), "ns")
    checked = c.get("vfs.mark_obsolete_sweep.files_checked", 0)
    scanned = c.get("recovery.weighted_rr.files_scanned", 0)
    m.update({
        "vfs.create_file.calls": (calls("vfs.create_file"), "count"),
        "vfs.create_file.blocks": (c.get("vfs.create_file.blocks", 0), "count"),
        "vfs.create_file.self_ns_per_block": (_ratio(own("vfs.create_file"), c.get("vfs.create_file.blocks", 0)), "ns"),
        "vfs.delete_file.self_ns_per_block": (_ratio(own("vfs.delete_file"), c.get("vfs.delete_file.blocks", 0)), "ns"),
        "vfs.read_file.ns_per_call": (per_call("vfs.read_file"), "ns"),
        "vfs.write_file.ns_per_call": (per_call("vfs.write_file"), "ns"),
        "vfs.mark_obsolete_sweep.files_checked": (checked, "count"),
        "vfs.mark_obsolete_sweep.flip_ratio": (_ratio(c.get("vfs.mark_obsolete_sweep.flips", 0), checked), "ratio"),
        "vfs.mark_obsolete_sweep.ns": (total("vfs.mark_obsolete_sweep"), "ns"),
        "vfs.retired.files": (c.get("vfs.retired.files", 0), "count"),
        "recovery.weighted_rr.calls": (calls("recovery.weighted_rr"), "count"),
        "recovery.weighted_rr.files_scanned": (scanned, "count"),
        "recovery.weighted_rr.live_ratio": (_ratio(c.get("recovery.weighted_rr.live_files", 0), scanned), "ratio"),
        "recovery.weighted_rr.ns_per_call": (per_call("recovery.weighted_rr"), "ns"),
        "recovery.access_time_term.ns": (total("recovery.access_time_term"), "ns"),
        "recovery.recover_file.calls": (c.get("recovery.recover_file.calls", 0), "count"),
        "workload.generate_op.calls": (calls("workload.generate_op"), "count"),
        "workload.generate_op.ns_per_call": (per_call("workload.generate_op"), "ns"),
        "workload.trace.entries": (c.get("workload.trace.entries", 0), "count"),
        "tuner.interval.ns": (per_call("tuner.interval"), "ns"),
        "tuner.measure.ns": (per_call("tuner.measure"), "ns"),
        "tuner.evaluate_policy.ns": (per_call("tuner.evaluate_policy"), "ns"),
        "tuner.set_hyperparams.calls": (c.get("tuner.set_hyperparams.calls", 0), "count"),
    })
    for policy in ("apex", "first-fit"):
        m[f"compare.run_cell.{policy}.ns_per_cell"] = (per_call(f"compare.run_cell.{policy}"), "ns")
    m["config.load_config.ns"] = (total("config.load_config"), "ns")
    m["trace.ops"] = (ops, "count")
    m["trace.spans"] = (len(tracer.spans), "count")
    return m


def op_seconds(tracer):
    """Host seconds inside op spans: the traced op loop."""
    return sum(end - start for name, start, end, _p, _o in tracer.spans if name == OP_SPAN) / 1e9
