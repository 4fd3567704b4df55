"""Campaign / store configuration rules (``CAM``): pre-flight, not post-mortem.

Each of these rules re-expresses a class of failure the campaign runner
used to hit *at runtime* — possibly long after trace generation started —
as a static diagnostic over the configured grid and run options: duplicate
grid labels and out-of-subset true guesses (``CAM001``), unpicklable
callables under sharding (``CAM002``), second-order kernels under
streaming (``CAM003``), and a store whose manifest cannot match this run's
grid (``CAM004``).  They only read the campaign's configuration; no trace
is ever generated.
"""

from __future__ import annotations

import pickle
from pathlib import Path
from typing import List

from .diagnostics import Severity
from .registry import Finding, Rule, finding


def _noises(campaign) -> List[tuple]:
    return list(campaign._noises) or [("noiseless", None)]


def check_grid_labels(context) -> List[Finding]:
    """CAM001 — grid label integrity and guess-subset consistency.

    Duplicate design or noise labels collapse distinct scenarios into one
    indistinguishable table row (and abort a ``store=`` run, whose shards
    need unique scenario keys); a selection whose true guess is outside the
    campaign's restricted guess subset aborts mid-attack with a
    ``DPAError`` after the traces were already generated.
    """
    campaign = context.campaign
    hits: List[Finding] = []
    design_labels = [design.label for design in campaign._designs]
    for label in sorted({label for label in design_labels
                         if design_labels.count(label) > 1}):
        hits.append(finding(
            f"design label {label!r} registered "
            f"{design_labels.count(label)} times",
            "design", label,
            hint="every add_design label must be unique; suffix the "
                 "source or variant into the label"))
    noise_labels = [label for label, _factory in _noises(campaign)]
    for label in sorted({label for label in noise_labels
                         if noise_labels.count(label) > 1}):
        hits.append(finding(
            f"noise label {label!r} registered "
            f"{noise_labels.count(label)} times",
            "scenario", label,
            hint="every add_noise label must be unique"))
    if campaign.guesses is not None:
        subset = set(campaign.guesses)
        for entry in campaign._selections:
            guess = entry.correct_guess
            if guess is not None and guess not in subset:
                hits.append(finding(
                    f"true guess {guess:#04x} of selection "
                    f"{entry.selection.name!r} is outside the campaign's "
                    f"guess subset ({len(subset)} guesses)",
                    "selection", entry.selection.name,
                    hint="add the true guess to guesses= or drop the "
                         "subset; disclosure cannot be computed without it"))
    return hits


def _pickle_probe(value) -> str:
    """Empty string when ``value`` pickles, else the failure message."""
    try:
        pickle.dumps(value)
    except Exception as error:  # noqa: BLE001 - pickle raises many types
        return f"{type(error).__name__}: {error}"
    return ""


def check_shard_picklability(context) -> List[Finding]:
    """CAM002 — ``workers > 1`` with unpicklable grid callables.

    Sharding forks the campaign into the workers of a one-run
    :class:`repro.serve.CampaignService`; a custom trace source or noise
    factory that cannot pickle (a lambda, a closure over an open handle)
    ties the run to the copy-on-write ``fork`` start method.  Where
    ``fork`` is unavailable the service falls back to its 0-worker inline
    executor — the workers knob quietly does nothing.  Probed with
    :func:`pickle.dumps` on the callables only, never on netlists.
    """
    campaign = context.campaign
    if int(context.option("workers", 1) or 1) <= 1:
        return []
    hits: List[Finding] = []
    for design in campaign._designs:
        if design.trace_source is None:
            continue
        failure = _pickle_probe(design.trace_source)
        if failure:
            hits.append(finding(
                f"trace source of design {design.label!r} does not pickle "
                f"({failure}) with workers > 1",
                "design", design.label, detail="trace_source",
                hint="move the callable to module level (fork-only runs "
                     "work but cannot shard elsewhere), or run workers=1"))
    for label, factory in _noises(campaign):
        if factory is None:
            continue
        failure = _pickle_probe(factory)
        if failure:
            hits.append(finding(
                f"noise factory {label!r} does not pickle ({failure}) "
                "with workers > 1",
                "scenario", label, detail="noise factory",
                hint="define the factory at module level instead of a "
                     "lambda, or run workers=1"))
    return hits


def check_streaming_kernels(context) -> List[Finding]:
    """CAM003 — ``streaming=True`` with a second-order attack.

    Second-order (centered-product) kernels need the full trace matrix;
    :func:`repro.assess.streaming.streaming_state` raises ``DPAError``
    when the first streaming scenario builds its attack states — after the
    run was planned and dispatched.  The attack family is known statically
    from the builder.
    """
    from ..core.flow import _SecondOrderBuilder

    if not context.option("streaming", False):
        return []
    campaign = context.campaign
    hits: List[Finding] = []
    for attack in campaign._attacks:
        if isinstance(attack.build, _SecondOrderBuilder):
            hits.append(finding(
                f"attack {attack.label!r} is second-order "
                "(centered-product) and cannot run in streaming mode",
                "attack", attack.label,
                hint="drop streaming=True for this grid, or split the "
                     "second-order attack into its own in-memory campaign"))
    return hits


def check_store_manifest(context) -> List[Finding]:
    """CAM004 — a resume store whose manifest cannot match this run.

    Re-opening a store with a different kind, scenario-key list or grid
    fingerprint raises ``StoreError`` inside ``CampaignStore.open``; this
    rule performs the same comparison against the on-disk manifest before
    anything runs.  ``keep_results=True`` never composes with a store.
    """
    from ..core.flow import standard_attack
    from ..store.manifest import StoreManifest
    from ..store.schema import StoreError

    campaign = context.campaign
    store = context.option("store")
    if store is None:
        return []
    hits: List[Finding] = []
    options = context.option("options") or {}
    if options.get("keep_results"):
        hits.append(finding(
            "keep_results=True does not compose with store=: attack "
            "result objects are not columnar",
            "store", str(store),
            hint="drop keep_results, or run the scenario of interest "
                 "in memory"))
    try:
        manifest = StoreManifest.load_if_present(Path(store))
    except StoreError as error:
        hits.append(finding(
            f"store manifest is unreadable: {error}",
            "store", str(store),
            hint="the directory holds a corrupt or foreign manifest; "
                 "use a fresh directory"))
        return hits
    if manifest is None:
        return hits
    scenarios = [(noise_label, factory, design)
                 for noise_label, factory in _noises(campaign)
                 for design in campaign._designs]
    keys = [f"{noise_label}/{design.label}"
            for noise_label, _factory, design in scenarios]
    if len(set(keys)) != len(keys):
        return hits  # duplicate keys are CAM001's finding; no stable grid
    fingerprint = None
    plaintexts = context.option("plaintexts")
    if plaintexts is not None:
        attacks = list(campaign._attacks) or [standard_attack("dpa")]
        fp_options = {
            "attacks": attacks,
            "assessments": list(campaign._assessments),
            "compute_disclosure": options.get("compute_disclosure", True),
            "streaming": bool(context.option("streaming", False)),
            "chunk_size": context.option("chunk_size"),
        }
        fingerprint = campaign._grid_fingerprint(
            keys, plaintexts, int(context.option("seed", 0) or 0),
            fp_options)
    try:
        manifest.check_compatible(
            kind="campaign",
            fingerprint=fingerprint if fingerprint is not None
            else manifest.fingerprint,
            scenario_keys=keys)
    except StoreError as error:
        hits.append(finding(
            str(error), "store", str(store), detail="manifest",
            hint="resume with the original grid, or point store= at a "
                 "fresh directory"))
    return hits


RULES = (
    Rule("CAM001", "grid label or guess-subset mismatch", "campaign",
         Severity.ERROR, check_grid_labels,
         "Duplicate design/noise labels, or a true guess outside the "
         "campaign's guess subset."),
    Rule("CAM002", "unpicklable callable under sharding", "campaign",
         Severity.ERROR, check_shard_picklability,
         "workers > 1 with a trace source or noise factory that does not "
         "pickle."),
    Rule("CAM003", "second-order attack under streaming", "campaign",
         Severity.ERROR, check_streaming_kernels,
         "streaming=True with a centered-product kernel that needs the "
         "full trace matrix."),
    Rule("CAM004", "store manifest mismatch", "campaign",
         Severity.ERROR, check_store_manifest,
         "A resume store whose manifest kind, keys or fingerprint cannot "
         "match this run."),
)
