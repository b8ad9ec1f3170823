"""Traced run: per-layer metrics from calls into each module's public API.

The layers are the package's modules: ``cli``, ``dataset_io``,
``image_sequence``, ``clip_sequence``, ``templates``, ``position_token``
and ``evaluation``. Spans wrap calls made from this file; the program
itself is not instrumented. Every traced run executes the same suite:

1. fresh-interpreter ``import seq2time``;
2. the three workload pipelines in-process, at workload size: image build
   at ``--jobs 2`` (plus a ``--jobs 1`` baseline of the same job), clip
   build, and ``evaluate_run`` itself, with the public functions it calls
   swapped for span-wrapped versions while it runs;
3. fixed-count probes of per-call costs.

So a metric has one meaning on every workload; the table in README.md
says which end-to-end metric and workload each one should move.
"""

from __future__ import annotations

import random
import resource
import statistics
import sys
from contextlib import contextmanager
from pathlib import Path

import check
import inputs
from procs import sha256, spawn
from tracing import Tracer, clock
from workloads import IMAGE_JOBS, SEQ_LEN, WORKLOADS

from seq2time import (
    CaptionedImage,
    ClipCorpusConfig,
    ImageCorpusConfig,
    TemplateBank,
    TimeRepresentation,
    apportion_frames,
    build_clip_corpus,
    build_image_corpus,
    code_from_string,
    compose_sequence,
    corpus_stats,
    encode_relative,
    load_clip_captions,
    load_image_captions,
    render_code,
    render_template,
    sample_sequence,
    write_jsonl,
)
from seq2time import evaluation as ev

RPT = TimeRepresentation.RPT
BATCHES = 5
EMPTY_SPANS = 20_000  # per batch, to price one span for trace.overhead_s
UNITS = {
    "cli.import_s": "s",
    "dataset_io.load_s": "s",
    "dataset_io.load_rows": "count",
    "dataset_io.write_s": "s",
    "dataset_io.bytes_written": "bytes",
    "dataset_io.stats_s": "s",
    "image_sequence.generate_s": "s",
    "image_sequence.records": "count",
    "image_sequence.sample_us.pool500": "us",
    "image_sequence.sample_us.pool20k": "us",
    "image_sequence.sample_us.pool200k": "us",
    "image_sequence.parent_cpu_s": "s",
    "image_sequence.worker_cpu_s": "s",
    "image_sequence.fanout_speedup": "ratio",
    "clip_sequence.generate_s": "s",
    "clip_sequence.compose_us": "us",
    "clip_sequence.apportion_us": "us",
    "templates.render_us": "us",
    "templates.bank_load_s": "s",
    "position_token.encode_render_us": "us",
    "position_token.codes_rendered": "count",
    "position_token.parse_us": "us",
    "evaluation.parse_s": "s",
    "evaluation.events_parsed": "count",
    "evaluation.skipped_lines": "count",
    "evaluation.match_s": "s",
    "evaluation.iou_pairs": "count",
    "evaluation.recall_s": "s",
    "evaluation.richness_s": "s",
    "trace.overhead_s": "s",
}
ROOT_SPANS = {"image-build": "image.build", "clip-build": "clip.build", "eval-dvc": "eval.run"}
GENERATE_SPANS = {
    "image-build": "image_sequence.build_image_corpus.next",
    "clip-build": "clip_sequence.build_clip_corpus.next",
}
# per-layer times that are sums of span self times, by span name
SPAN_TOTALS = {
    "dataset_io.load_s": (
        "dataset_io.load_image_captions", "dataset_io.load_clip_captions",
        "evaluation.load_predictions", "evaluation.load_ground_truth",
    ),
    "dataset_io.write_s": ("dataset_io.write_jsonl",),
    "dataset_io.stats_s": ("dataset_io.corpus_stats",),
    "image_sequence.generate_s": (GENERATE_SPANS["image-build"],),
    "clip_sequence.generate_s": (GENERATE_SPANS["clip-build"],),
    "evaluation.parse_s": ("evaluation.parse_predictions",),
    "evaluation.match_s": ("evaluation.temporal_f1",),
    "evaluation.recall_s": ("evaluation.recall_at_1",),
    "evaluation.richness_s": ("evaluation.aggregate_richness",),
}
IMPORT_CODE = (
    "import time\nt = time.perf_counter()\nimport seq2time\nprint(time.perf_counter() - t)\n"
)


class Suite:
    def __init__(self, tracer: Tracer, seed: int, work: Path):
        self.t, self.seed, self.work = tracer, seed, work
        self.m: dict[str, float] = {  # metrics measured outside the span totals
            "dataset_io.load_rows": 0, "dataset_io.bytes_written": 0,
            "position_token.codes_rendered": 0,
        }
        self.problems: list[str] = []
        self.checked = self.failed = 0

    def expect(self, what: str, problems: list[str]) -> None:
        """Count one checked output; record its problems, if any."""
        self.checked += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]

    # --- pipelines ---------------------------------------------------------

    def build(self, workload: str, prepared, load, make_config, builder, jobs: int):
        """load -> bank -> generate while writing -> stats, a span around each.

        Returns the pool, bank, config, write span, record count, and the CPU
        seconds of this process and of its reaped children spent generating
        and writing.
        """
        t, data, out = self.t, prepared.data, prepared.data["output"]
        with t.span(ROOT_SPANS[workload]):
            with t.span(f"dataset_io.{load.__name__}"):
                pool = load(data["source"])
            with t.span("templates.TemplateBank.load"):
                bank = TemplateBank.load()
            config = make_config(n_instances=prepared.items, seed=self.seed)
            before = _cpu()
            with t.span("dataset_io.write_jsonl") as write:
                generator = builder(config, pool, bank, jobs=jobs)
                count = write_jsonl(t.iterate(GENERATE_SPANS[workload], generator), out)
            after = _cpu()
            with t.span("dataset_io.corpus_stats"):
                stats = corpus_stats(out)
        self.m["dataset_io.load_rows"] += len(pool)
        self.m["dataset_io.bytes_written"] += out.stat().st_size
        with open(out, encoding="utf-8") as fh:
            self.m["position_token.codes_rendered"] += sum(len(check.CODE.findall(x)) for x in fh)
        payload = {"records": count, "seed": self.seed, "stats": stats.to_dict()}
        key = (sha256(out), payload)
        self.expect(f"in-process {workload}",
                    prepared.verify(payload)
                    + check.against_reference(WORKLOADS[workload], self.seed, key))
        cpu = (after[0] - before[0], after[1] - before[1])
        return pool, bank, config, write, count, cpu

    def image_build(self, prepared) -> None:
        pool, bank, config, jobs2, count, cpu = self.build(
            "image-build", prepared, load_image_captions,
            lambda **kw: ImageCorpusConfig(seq_len=SEQ_LEN, **kw),
            build_image_corpus, IMAGE_JOBS,
        )
        self.image_pool = pool
        self.m["image_sequence.records"] = count
        self.m["image_sequence.parent_cpu_s"], self.m["image_sequence.worker_cpu_s"] = cpu

        baseline = self.work / "image_jobs1.jsonl"
        with self.t.span("image_sequence.fanout_jobs1") as jobs1:
            write_jsonl(
                self.t.iterate("image_sequence.jobs1.next",
                               build_image_corpus(config, pool, bank, jobs=1)),
                baseline,
            )
        self.m["image_sequence.fanout_speedup"] = (jobs1[3] - jobs1[2]) / (jobs2[3] - jobs2[2])
        same = sha256(baseline) == sha256(prepared.data["output"])
        self.expect("jobs-1 baseline", [] if same else ["--jobs 1 and --jobs 2 outputs differ"])
        baseline.unlink()

    def clip_build(self, prepared) -> None:
        self.clip_pool = self.build(
            "clip-build", prepared, load_clip_captions, ClipCorpusConfig, build_clip_corpus, 1
        )[0]

    def evaluation(self, prepared) -> None:
        """``evaluate_run`` itself, a span around each public call it makes."""
        m = self.m
        m["evaluation.events_parsed"] = m["evaluation.skipped_lines"] = 0
        m["evaluation.iou_pairs"] = 0

        def rows(loaded, path):
            m["dataset_io.load_rows"] += len(loaded)

        def parsed(result, output, time_repr, duration):
            m["evaluation.events_parsed"] += len(result.events)
            m["evaluation.skipped_lines"] += result.skipped_lines

        def pairs(result, pred, gt, thresholds):
            m["evaluation.iou_pairs"] += len(pred) * len(gt) * len(thresholds)

        hooks = {"load_predictions": rows, "load_ground_truth": rows,
                 "parse_predictions": parsed, "temporal_f1": pairs,
                 "recall_at_1": None, "aggregate_richness": None}
        data = prepared.data
        with _spanned(self.t, ev, hooks), self.t.span("eval.run"):
            report = ev.evaluate_run(data["pred"], data["gt"], RPT)
        payload = report.to_dict()
        self.expect("in-process evaluation",
                    prepared.verify(payload)
                    + check.against_reference(WORKLOADS["eval-dvc"], self.seed, (None, payload)))

    # --- per-call probes ---------------------------------------------------

    def per_call_us(self, name: str, calls) -> None:
        """Median over batches of the mean cost of one call, in microseconds."""
        n, batch = calls
        per_call = []
        for _ in range(BATCHES):
            with self.t.span(name) as span:
                batch()
            per_call.append((span[3] - span[2]) / n * 1e6)
        self.m[name] = statistics.median(per_call)

    def probes(self) -> None:
        seed, image_pool = self.seed, self.image_pool
        rng = random.Random(f"perfbench:probes:{seed}")
        for label, pool, n in (
            ("pool500", _pool(seed, 500), 400),
            ("pool20k", image_pool, 200),
            ("pool200k", _pool(seed, 200_000), 40),
        ):
            draw = random.Random(f"{seed}:{label}")
            self.per_call_us(
                f"image_sequence.sample_us.{label}",
                _repeat(n, lambda: sample_sequence(pool, SEQ_LEN, draw)),
            )

        clips, draw = self.clip_pool, random.Random(f"{seed}:compose")
        self.per_call_us(
            "clip_sequence.compose_us",
            _repeat(1000, lambda: compose_sequence(clips, draw.randint(2, 10), 96, (0.5, 2.0), draw)),
        )
        weights = [[rng.uniform(2.5, 30.0) for _ in range(rng.randint(2, 10))] for _ in range(5000)]
        self.per_call_us("clip_sequence.apportion_us", _each(weights, lambda w: apportion_frames(w, 96)))

        bank_loads = []
        for _ in range(BATCHES):
            with self.t.span("templates.bank_load_s") as span:
                bank = TemplateBank.load()
            bank_loads.append(span[3] - span[2])
        self.m["templates.bank_load_s"] = statistics.median(bank_loads)
        fills = []
        for _ in range(5000):
            _, answer = bank.sample("iic", "single", rng)
            code = render_code(encode_relative(rng.randint(1, 96), 96))
            fills.append((answer, {"<INDEX>": code, "<CAPTION>": rng.choice(image_pool).caption}))
        self.per_call_us("templates.render_us", _each(fills, lambda f: render_template(*f)))

        positions = [(rng.randint(1, length), length)
                     for length in (rng.randint(2, 5000) for _ in range(20000))]
        self.per_call_us(
            "position_token.encode_render_us",
            _each(positions, lambda p: render_code(encode_relative(*p))),
        )
        rendered = [render_code(encode_relative(*p)) for p in positions]
        self.per_call_us("position_token.parse_us", _each(rendered, code_from_string))


def _repeat(n: int, fn):
    """A batch of ``n`` calls of ``fn()``."""
    def batch():
        for _ in range(n):
            fn()
    return n, batch


def _each(args: list, fn):
    """A batch of one call of ``fn(a)`` per element ``a`` of ``args``."""
    def batch():
        for a in args:
            fn(a)
    return len(args), batch


@contextmanager
def _spanned(tracer: Tracer, module, hooks: dict):
    """Swap the functions of ``module`` named in ``hooks`` for versions that
    call the original in a span named ``<module>.<function>`` and then pass
    the result and the arguments to the hook, if any. The originals are put
    back on exit."""
    originals = {name: getattr(module, name) for name in hooks}
    prefix = module.__name__.rpartition(".")[2]

    def wrap(name, fn, hook):
        def wrapped(*args):
            with tracer.span(f"{prefix}.{name}"):
                result = fn(*args)
            if hook:
                hook(result, *args)
            return result
        return wrapped

    for name, fn in originals.items():
        setattr(module, name, wrap(name, fn, hooks[name]))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)


def _span_cost_s() -> float:
    """Median cost of one empty span, opened and closed on a scratch tracer."""
    costs = []
    for _ in range(BATCHES):
        scratch = Tracer(run_id="span-cost")
        start = clock()
        for _ in range(EMPTY_SPANS):
            with scratch.span("empty"):
                pass
        costs.append((clock() - start) / EMPTY_SPANS)
    return statistics.median(costs)


def _pool(seed: int, size: int) -> list[CaptionedImage]:
    return [CaptionedImage(**row) for row in inputs.image_pool_rows(seed, size)]


def _cpu() -> tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def traced(workload, prepared, seed: int, work: Path, state: Path):
    """Run the suite once; return the per-layer metrics and check results."""
    tracer = Tracer(run_id=f"{workload.name}-{seed}")
    suite = Suite(tracer, seed, work)

    imports = []
    for _ in range(BATCHES):
        with tracer.span("cli.import_seq2time"):
            run = spawn([sys.executable, "-c", IMPORT_CODE], work / "import.out")
        imports.append(float(run.stdout))

    prepared_all = {
        name: prepared if name == workload.name else w.prepare(seed, work)
        for name, w in WORKLOADS.items()
    }
    suite.image_build(prepared_all["image-build"])
    suite.clip_build(prepared_all["clip-build"])
    suite.evaluation(prepared_all["eval-dvc"])
    suite.probes()

    own = tracer.self_times()
    totals = {
        metric: sum(own.get(name, 0.0) for name in names)
        for metric, names in SPAN_TOTALS.items()
    }
    totals["cli.import_s"] = statistics.median(imports)
    # the spans' own cost: how many the workload's pipeline opened, times
    # the measured cost of one
    totals["trace.overhead_s"] = tracer.count_within(ROOT_SPANS[workload.name]) * _span_cost_s()
    metrics = {name: {**suite.m, **totals}[name] for name in UNITS}
    tracer.write(state / f"trace-{workload.name}-{seed}.jsonl")
    samples = {"probe_batches": BATCHES, "import_runs": len(imports),
               "span_cost_batches": BATCHES, "traced_pipeline_runs": 1}
    return check.Outcome(metrics, UNITS, suite.problems, suite.checked, suite.failed, samples)
