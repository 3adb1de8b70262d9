"""The benchmark's workloads: corpus generation from a seed, the timed
operation, and the oracle that checks its outputs against the generator's
ground truth.

Each workload drives meterpipe only through public entry points, looked up
on the module at call time so that the traced run can wrap them:
``pipeline.run_single``, ``pipeline.run_batches``, ``pipeline.stage_parse``
(set-up of ``revalidate`` only), ``pipeline.stage_validate`` and
``pipeline.stage_aggregate``.
"""

import os
import shutil
import time
from dataclasses import dataclass

from meterpipe import core, generator, pipeline


@dataclass(frozen=True)
class Workload:
    """One corpus shape and the public entry point timed on it.

    ``kind`` is ``single`` (time ``pipeline.run_single``), ``batches`` (time
    ``pipeline.run_batches``) or ``revalidate`` (parse once in set-up, then
    time ``stage_validate`` followed by ``stage_aggregate``).
    """

    name: str
    kind: str
    files: int  # per batch
    meters: int
    readings_per_file: int
    invalid_ratio: float
    batches: int = 1

    def config(self, root):
        """The pipeline configuration for a work directory."""
        readings = os.path.join(root, "readings")
        batch_dirs = None
        master_dir = readings
        if self.kind == "batches":
            batch_dirs = [f"b{i:02d}" for i in range(self.batches)]
            master_dir = os.path.join(readings, batch_dirs[0])
        return pipeline.PipelineConfig(
            readings_dir=readings,
            parsed_dir=os.path.join(root, "parsed"),
            valid_dir=os.path.join(root, "valid"),
            corrected_dir=os.path.join(root, "corrected"),
            master_path=os.path.join(master_dir, generator.MASTER_FILENAME),
            batch_dirs=batch_dirs,
        )

    def reference(self, config):
        """The configuration whose stage outputs the per-tool runs reproduce."""
        if self.kind == "batches":
            return config.for_batch(config.batch_dirs[0])
        return config

    def _corpora(self, config, seed):
        """(directory, seed) of every corpus the workload generates."""
        if self.kind != "batches":
            return [(config.readings_dir, seed)]
        rng = generator.SplitMix64(seed)
        return [(config.for_batch(b).readings_dir, rng.next64()) for b in config.batch_dirs]

    def setup(self, root, seed):
        """Generate the corpus (and parse it, on ``revalidate``) under root.

        Returns (expected, parse_s); parse_s is the parse's wall time, or
        None unless the set-up parses.
        """
        shutil.rmtree(root, ignore_errors=True)
        config = self.config(root)
        readings = 0
        for out_dir, corpus_seed in self._corpora(config, seed):
            readings += generator.generate_corpus(
                generator.GeneratorConfig(
                    file_count=self.files,
                    meters=self.meters,
                    seed=corpus_seed,
                    out_dir=out_dir,
                    readings_per_file=self.readings_per_file,
                    invalid_ratio=self.invalid_ratio,
                )
            ).readings
        parse_s = None
        if self.kind == "revalidate":
            parse_started = time.perf_counter()
            pipeline.stage_parse(config)
            parse_s = time.perf_counter() - parse_started
        return self._expected(config, seed, readings), parse_s

    def _expected(self, config, seed, readings):
        sums = {}
        invalid = 0
        for out_dir, _ in self._corpora(config, seed):
            batch_sums, batch_invalid = generator.load_sidecar(
                os.path.join(out_dir, generator.SIDECAR_FILENAME)
            )
            invalid += batch_invalid
            for name, text in batch_sums.items():
                value = core.parse_decimal(text)
                sums[name] = core.decimal_add(sums[name], value) if name in sums else value
        return Expected(
            sums={name: core.format_decimal(v) for name, v in sorted(sums.items())},
            invalid=invalid,
            readings=readings,
        )

    def clean_outputs(self, config):
        """Remove every output the timed operation writes, so none is stale."""
        dirs = [config.valid_dir, config.corrected_dir]
        if self.kind != "revalidate":
            dirs.append(config.parsed_dir)
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)

    def operate(self, config, keep_intermediates=False):
        """Run the timed operation; returns wall seconds per stage, summed
        over batches."""
        if self.kind == "single":
            return pipeline.run_single(config, keep_intermediates)
        if self.kind == "batches":
            totals = {}
            for _, times in pipeline.run_batches(config, keep_intermediates):
                for stage, secs in times.items():
                    totals[stage] = totals.get(stage, 0.0) + secs
            return totals
        times = {}
        for stage in ("validate", "aggregate"):
            started = time.perf_counter()
            getattr(pipeline, f"stage_{stage}")(config)
            times[stage] = time.perf_counter() - started
        return times

    def check(self, config, expected):
        """The oracle: None if the outputs match the ground truth, else why not."""
        got = {}
        with open(config.aggregate_file, "r", encoding="utf-8") as f:
            for line in f:
                name, total = line.split()
                got[name] = total
        if got != expected.sums:
            return f"aggregate {got} != ground truth {expected.sums}"
        parts = [config]
        if self.kind == "batches":
            parts = [config.for_batch(b) for b in config.batch_dirs]
        valid = sum(count_lines(p.valid_file) for p in parts)
        invalid = sum(count_lines(p.invalid_file) for p in parts)
        if invalid != expected.invalid:
            return f"{invalid} invalid rows, {expected.invalid} planted"
        if valid + invalid != expected.readings:
            return f"{valid} valid + {invalid} invalid rows != {expected.readings} readings"
        return None


@dataclass(frozen=True)
class Expected:
    """Ground truth of one generated corpus."""

    sums: dict  # type name -> exact decimal sum of valid readings, as text
    invalid: int
    readings: int


def count_lines(path):
    with open(path, "rb") as f:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: f.read(1 << 16), b""))


def tree_bytes(root):
    """Total size of the regular files under root."""
    return sum(
        os.path.getsize(os.path.join(d, name))
        for d, _, names in os.walk(root)
        for name in names
    )


# Sizes are chosen so that one run, set-up included, stays well under a
# minute on 2 cores; see README.md for what each workload isolates.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("small-files", "single", files=2500, meters=625, readings_per_file=3, invalid_ratio=0.1),
        Workload("many-batches", "batches", files=50, meters=50, readings_per_file=3, invalid_ratio=0.1, batches=5),
        Workload("revalidate", "revalidate", files=100, meters=100, readings_per_file=300, invalid_ratio=0.5),
    )
}
