"""The stress driver replays byte-for-byte against committed digests.

``run_stress`` delivers each due message batch in one
:meth:`SimulatedNetwork.drain_due` sweep: whenever every script is
blocked, the whole batch lands before any client polls again.  Any change
to that loop — the order messages are delivered in, how many land per
sweep, when the fault RNG is drawn — moves the server-side history, the
client journals, the certification map, the counters or the trace.  These
tests pin all five, per seed, to sha256 digests recorded from the driver's
output; a change to how the driver does its work must leave every digest
as it is.
"""

import hashlib
import json

import pytest

from repro.observability import Tracer
from repro.service import NetworkConfig, StressConfig, run_stress

FAULTY = NetworkConfig(drop=0.05, duplicate=0.05, min_delay=1, max_delay=4)
BASE = dict(clients=3, txns_per_client=10, keys=6, network=FAULTY)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _digests(result):
    """sha256 of (history text, journal text, certification map, counters)
    and, for a traced run, of the trace JSONL (``json.dumps(record,
    sort_keys=True)`` per record, one per line)."""
    certification = "".join(
        f"{tid} {None if lvl is None else lvl.name} {ok}\n"
        for tid, (lvl, ok) in sorted(result.certification.items())
    )
    counters = json.dumps(
        {
            "network": result.network_counters,
            "server": result.server_counters,
            "committed": result.committed,
            "ticks": result.ticks,
            "crashes": result.crashes,
            "restarts": result.restarts,
        },
        sort_keys=True,
    )
    digests = (
        _sha256(result.history_text),
        _sha256(result.journal_text()),
        _sha256(certification),
        _sha256(counters),
    )
    if result.tracer is not None:
        digests += (_sha256("".join(
            json.dumps(record, sort_keys=True) + "\n"
            for record in result.tracer.records
        )),)
    return digests


#: seed -> digests of ``StressConfig(seed=seed, **BASE)``.
GOLDEN_SEEDS = {
    0: (
        "9e158ca8b6c8af198efe34e0354d0464bbcb096d935b5f2d1a1fcd99add6c1d0",
        "a9ccdb99fd6d00955a9650e1c964d922dc9ce97ea0cea39c75f0345ada3a19fc",
        "419d1d9140c83efd9c50872f94cbae72fc12e1bbee8e012fb39ca7ee2d0703f1",
        "b9d076bddebb935568df4cc37696408a193a296b67b49c6ad5dce3b248379d0d",
    ),
    7: (
        "bf63283ea49bcc74138a8a285846ae58fc7c2df614ed80f065e265db4ec71674",
        "b6290eae57f5330e7e495166304c2002487b201a4169dca608c2c0b88b6e2674",
        "f7ec03010dec6520f129df3578a97ceacabfd00ed618a37e7879a3d8920168c5",
        "d1bd178818888a0f65dbc61498acee7ba5c7e74e3b04c3b55b83ba4b4064ebec",
    ),
    13: (
        "0a41c03d8a8dfadc15ce7acd790dbaf38fd2875d04a879ae582e0c5220a7bca3",
        "65498336fc68136073d2eb6ac578b7d73fb22d0afdfdd5c4fa78a3b0e5cca204",
        "f7ec03010dec6520f129df3578a97ceacabfd00ed618a37e7879a3d8920168c5",
        "e580e38cd5c3529ae1eaee614fb8792d3f18d7f4a37c92e4f835ebf50145d12b",
    ),
    42: (
        "b70ab84aca39838769c349acd04395e69fbd37f54a0fb16b1c379d97db511065",
        "0533230c395bc7b0f8792afd109d3f03c4be0be8351138fdfaa1e7387da97a7d",
        "f7ec03010dec6520f129df3578a97ceacabfd00ed618a37e7879a3d8920168c5",
        "c651371b580e21019d227f331dc5c9ddbf031215f3c63ca078936281536ad755",
    ),
}

#: Digests of the crash/restart run (4 clients x 25 txns, seed 7, crash
#: after 30 commits, restart 25 ticks later).
GOLDEN_CRASH = (
    "ef8a672aea9c1c1d5995a2c494ab52609ead4b86125f8c1bee34e7d6a4c9fd6c",
    "3425bb27577676a0f64a3b4fff90476ecf18671330e0b10db91dfab5ea30c0d9",
    "816e49901fb52eebc0fd67a335a15b2995879674c15367f295ab7a9a03784c35",
    "a099488cd778df328f2e868e89293e0c5fa89e2f622eb056181caccefb802252",
)

#: Digests of the traced seed-5 run, trace JSONL last.
GOLDEN_TRACED = (
    "ccf58353fbb179381ee848b6fb7b5380ce50c61a3fd5f2aca6212e64b9d76eba",
    "534737dea7c0813ee384bd6a20779fb3bf9d9ae2982086085bc5f7027f6878c5",
    "f7ec03010dec6520f129df3578a97ceacabfd00ed618a37e7879a3d8920168c5",
    "04351c100642a326c23265a84183d4ef7e5023251cef953f4d0bfc9c7891aa07",
    "e9cc235c6d55b221acd27be3b4a922d7691187cd722668466a50070309251df8",
)


@pytest.mark.parametrize("seed", sorted(GOLDEN_SEEDS))
def test_histories_and_journals_identical(seed):
    result = run_stress(StressConfig(seed=seed, **BASE))
    assert _digests(result) == GOLDEN_SEEDS[seed]
    assert result.config["pipeline"] is True


def test_identical_under_crash_and_restart():
    result = run_stress(StressConfig(
        clients=4,
        txns_per_client=25,
        keys=6,
        seed=7,
        network=FAULTY,
        crash_after_commits=30,
        restart_delay=25,
    ))
    assert result.crashes == 1 and result.restarts == 1
    assert _digests(result) == GOLDEN_CRASH


def test_traces_identical():
    result = run_stress(StressConfig(seed=5, **BASE), tracer=Tracer())
    assert any(r.get("name") == "net.msg" for r in result.tracer.records)
    assert _digests(result) == GOLDEN_TRACED
