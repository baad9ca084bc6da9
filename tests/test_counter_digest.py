"""Counter gate: both engines reproduce recorded counters, inputs and outputs.

Each case runs one engine end to end on a small config and compares five
values with ones recorded from the element-at-a-time engines that the
array engines replaced (the uneven-stripe case from the block-at-a-time
striped engine that the stripe-at-a-time one replaced): the SHA-256 of
the stats report without its ``wall_seconds`` line (every counter), the
input fingerprint, the SHA-256 of the output's little-endian keys followed
by its serials (the output order, ties included), each PE's peak block
allocation, and the SHA-256 of the output layout's little-endian ``int64``
PE column followed by its block-id column (recorded from the per-piece
all-to-all that the per-round one replaced).  A speedup that moves a
counter, a tie or a block fails here in seconds.  The same cases
hold the striped merge's traffic to a closed form in the coordinator's
reads and writes.
"""
from __future__ import annotations

import hashlib

import pytest

from emsort.core import (
    PHASE_STRIPED_MERGE, READ, RECEIVED, SENT, WRITE, MachineConfig,
)
from emsort.harness import INPUT_KINDS, InputSpec, generate_input, report_stats, run_sort
from emsort.vdisk import Cluster

from helpers import formation_window

#: Per case, its engine and config: R = 8 canonical runs (multi-round
#: all-to-all on ``worst_case_shift``); R = 64 striped runs at arity 8 (two
#: passes); and R = 63 striped runs of 16 blocks, the last of 8, over
#: P*D = 6 disks, so that no stripe covers the disks evenly.
CASES = {"canonical": ("canonical", dict(P=4, D=2, B=8, m=128, N=4096)),
         "striped": ("striped", dict(P=2, D=2, B=4, m=32, N=4096)),
         "striped_uneven": ("striped", dict(P=2, D=3, B=4, m=32, N=4000))}
SEED = 5

#: (case, kind, randomize): (stats digest, count, total, output digest,
#: peak allocated blocks per PE, output block-id digest).
RECORDED = {
    ("canonical", "random", True): ("8c6f1a0c495061e43b74c12a9fbf4923ff6e6f6e5c3fdca9e179b55ed9e61f52",
        4096, 325107421709780094848916235389849425830,
        "549e8bb2fbbdc41f1e31893ff40a7c535de82fd51df0abd154f9f5bb53dff585", [138, 138, 139, 134],
        "6f0125f64516a0ee8060b101f076357f54dc73dbbf8a3269b08be603c9b47c4e"),
    ("canonical", "random", False): ("72e8660f8241af8abb5c69dee31ccb96bf3bdb3dd406976cd4e68df1a4b21e54",
        4096, 325107421709780094848916235389849425830,
        "549e8bb2fbbdc41f1e31893ff40a7c535de82fd51df0abd154f9f5bb53dff585", [139, 138, 139, 134],
        "ae819a6eebe5127a5746c9e4fca90231b701f734f5f2bbb02aa3eec4c34f1f93"),
    ("canonical", "sorted", True): ("8d4ff100354afe5bdd1c2eaecbf00e4a99a3376a24e58893d8b552587520d7d9",
        4096, 325107423055447097827705441987990810554,
        "85db16798915bba86d05d2b0769f71a7f798788ccda9b179b0e289f9ce07239d", [129, 129, 129, 129],
        "1a1df498bc731968fe7931fff3be28838c7dd2ce4ddcd92e51c1e0f1c7029abb"),
    ("canonical", "sorted", False): ("1695fc3f97589f6b7b69a7194a34a67d9ddcb569bcc9e0d75fef398a747e5705",
        4096, 325107423055447097827705441987990810554,
        "85db16798915bba86d05d2b0769f71a7f798788ccda9b179b0e289f9ce07239d", [129, 129, 129, 129],
        "1a1df498bc731968fe7931fff3be28838c7dd2ce4ddcd92e51c1e0f1c7029abb"),
    ("canonical", "reverse", True): ("cf5cb848bf97cb1b68bec0c2e395c0bf83288484fb67f9cea40645cbd7f1751f",
        4096, 325107421564398737009544851268164546490,
        "5273d0b919602d453478328a7e8e330b66094fbe2c2a2b89a2056031f4abd782", [129, 129, 129, 129],
        "1a1df498bc731968fe7931fff3be28838c7dd2ce4ddcd92e51c1e0f1c7029abb"),
    ("canonical", "reverse", False): ("77f140601f2af0f6888da21ca183dd6925f325756f500133326d6b15bad081c6",
        4096, 325107421564398737009544851268164546490,
        "5273d0b919602d453478328a7e8e330b66094fbe2c2a2b89a2056031f4abd782", [129, 129, 129, 129],
        "1a1df498bc731968fe7931fff3be28838c7dd2ce4ddcd92e51c1e0f1c7029abb"),
    ("canonical", "duplicate_heavy", True): ("75761f2a1ee5367f6b7d73026befb50fce797524ab6a14a3ec7a9f856bce0714",
        4096, 325107425997287354756264325459785078637,
        "6e5f2118688c08224ed411c7fdbdf10496260ebc76d1b572ce99225d6a6187e2", [135, 138, 139, 133],
        "d248b673975a40ee247045da31d3f73a1915d4ebe7cf2ebac607add3274fd6dd"),
    ("canonical", "duplicate_heavy", False): ("1fe392180ed3dea7931c1bf11f6795fba8075a55dac97e3df8d975fa9c3c9749",
        4096, 325107425997287354756264325459785078637,
        "d089c93a0acebc5f5e308eecfad827c9bd0e429cbcabd882bcc9b66fa7fefaae", [134, 140, 140, 134],
        "09b30f765bc48fcd8b6f9990e68bcf363b0ce6caa3b2c7bfb0eda7e2bec6aa8f"),
    ("canonical", "worst_case_shift", True): ("1eb33cf442a2d9995908cac5a3bf7c6bf207a4e5dcb6fd91c8d531b987a028e0",
        4096, 325107423562633046901564125291166724026,
        "bdcb177895f6cfe99bfeda69a2c0c14e481491032aaf6a012fddb04ad25dbc92", [140, 148, 142, 134],
        "824b97eb25e5f1275a0716740eff3ec28fc9539158201c130d324bc24aabe8ee"),
    ("canonical", "worst_case_shift", False): ("50c3f64e2f7f7c12cad4202339dd59814333100b941f8c25b22247bb3cf36df8",
        4096, 325107423562633046901564125291166724026,
        "bdcb177895f6cfe99bfeda69a2c0c14e481491032aaf6a012fddb04ad25dbc92", [192, 256, 256, 192],
        "45b278bb8cf42c8d40b1452e1a2a94466ee2649512d597bb8776f9ed0271debc"),
    ("striped", "random", True): ("e8c1338c308084da3f3c1c2aadce8d6747bf762c55a64e258e9a46f02433b685",
        4096, 325107424289096206328601315039930576773,
        "47ae28ddfa31ebb3aa593e96a4c18f01f7596a930224bda7ff6aa2ce34ae03da", [514, 514],
        "c48aab6c247794001f1f8f74c5bf66f256f58f58180641afe94675d03eccb7e0"),
    ("striped", "random", False): ("fbfe23fb191fb618415672eb7e7b6bf7b2c357975ba8f25eb49e2b7b3cb8df45",
        4096, 325107424289096206328601315039930576773,
        "47ae28ddfa31ebb3aa593e96a4c18f01f7596a930224bda7ff6aa2ce34ae03da", [512, 517],
        "186582300bce8fb73d73b5ca1ceaa6f0427bd21cfca9cb5efdf399aecff44e55"),
    ("striped", "sorted", True): ("5116318bf8c5ac4106dcf333a9228b6001ca508867af0f7862d4ca0a1e6924e2",
        4096, 325107423055447097827705441987990810554,
        "85db16798915bba86d05d2b0769f71a7f798788ccda9b179b0e289f9ce07239d", [512, 512],
        "c48aab6c247794001f1f8f74c5bf66f256f58f58180641afe94675d03eccb7e0"),
    ("striped", "sorted", False): ("7068b36ce5134baa79bc7017f05845f51710ce4569dc2116d40e0e06acde081a",
        4096, 325107423055447097827705441987990810554,
        "85db16798915bba86d05d2b0769f71a7f798788ccda9b179b0e289f9ce07239d", [512, 512],
        "186582300bce8fb73d73b5ca1ceaa6f0427bd21cfca9cb5efdf399aecff44e55"),
    ("striped", "reverse", True): ("92174ed28f107366f52c16d3cd4a7ff9cbf7d7f3d1e406c7e99734d66a974e15",
        4096, 325107421564398737009544851268164546490,
        "5273d0b919602d453478328a7e8e330b66094fbe2c2a2b89a2056031f4abd782", [512, 512],
        "c48aab6c247794001f1f8f74c5bf66f256f58f58180641afe94675d03eccb7e0"),
    ("striped", "reverse", False): ("fa41026f282fb9c8c088d1f105306671e9261561c89f776445860b3549264856",
        4096, 325107421564398737009544851268164546490,
        "5273d0b919602d453478328a7e8e330b66094fbe2c2a2b89a2056031f4abd782", [512, 512],
        "186582300bce8fb73d73b5ca1ceaa6f0427bd21cfca9cb5efdf399aecff44e55"),
    ("striped", "duplicate_heavy", True): ("2f98978427fc8e84d27003e579ea0e4c509d0959764c664fba31466fe358deaf",
        4096, 325107423957642480158009708283398830805,
        "2552727642c273c9523ccb9d99dc9546ce5383b6986979ccd8abc38483c61117", [514, 513],
        "c48aab6c247794001f1f8f74c5bf66f256f58f58180641afe94675d03eccb7e0"),
    ("striped", "duplicate_heavy", False): ("24507feeb55bf623f8cdf0850975cb5a57a12b0e1b5f33d54ffb9c130f7ed523",
        4096, 325107423957642480158009708283398830805,
        "2552727642c273c9523ccb9d99dc9546ce5383b6986979ccd8abc38483c61117", [512, 517],
        "186582300bce8fb73d73b5ca1ceaa6f0427bd21cfca9cb5efdf399aecff44e55"),
    ("striped", "worst_case_shift", True): ("be4a1a058bd8f4d724ffd6f3275ff501bf1066fa9f49278a632a474057e5c3c7",
        4096, 325107421739326917724415797523816542138,
        "97b0237fed1c8f3e388730607adc7e9f700ddc037924686cd543fd127b6ffcd0", [512, 512],
        "c48aab6c247794001f1f8f74c5bf66f256f58f58180641afe94675d03eccb7e0"),
    ("striped", "worst_case_shift", False): ("199d9ef2b0c90c6fd44841632280594d34bcaa34322ed149c51545e3c8019a95",
        4096, 325107421739326917724415797523816542138,
        "97b0237fed1c8f3e388730607adc7e9f700ddc037924686cd543fd127b6ffcd0", [512, 512],
        "186582300bce8fb73d73b5ca1ceaa6f0427bd21cfca9cb5efdf399aecff44e55"),
    ("striped_uneven", "random", True): ("2679131000a31d97aeb8ec365d5170ac90c78de17564749c02af82d36c004d5f",
        4000, 228978434743548757551194844293472234255,
        "5605c5b3d74695ab988bc7a0d6fd12f12d222156f91634f0e1df32dc96faaa1f", [505, 502],
        "596e18624ed59574d26cd0eab325242a1dec7c486436a0d5245a4a66879d2938"),
    ("striped_uneven", "random", False): ("8be8b2c2ccf61927431838152e6c66ac74c1948d3104e02a64144ee98caffbb4",
        4000, 228978434743548757551194844293472234255,
        "5605c5b3d74695ab988bc7a0d6fd12f12d222156f91634f0e1df32dc96faaa1f", [563, 500],
        "b0f6fead2a597c962c3dcaf56046fa813270df51fb5c34b384928930f63afb57"),
    ("striped_uneven", "sorted", True): ("9fca8a1647a6fdfa0371ae1c6a8d2d5ca59a312b8f5324684f154c131c4b76fb",
        4000, 228978432557119832818585785232046084767,
        "58621bcd906326de44822368501db5c0105b0f3f9baed755de1bccffc92f9e78", [505, 504],
        "596e18624ed59574d26cd0eab325242a1dec7c486436a0d5245a4a66879d2938"),
    ("striped_uneven", "sorted", False): ("65e6cd49705664db4029447fcbb96b32e902deae684ac49d3bdf42652c99aec0",
        4000, 228978432557119832818585785232046084767,
        "58621bcd906326de44822368501db5c0105b0f3f9baed755de1bccffc92f9e78", [563, 500],
        "b0f6fead2a597c962c3dcaf56046fa813270df51fb5c34b384928930f63afb57"),
    ("striped_uneven", "reverse", True): ("27716299fa02165245ff4991307f775911f6e215735ca9bd6a1de9d57bde3943",
        4000, 228978432639247061097304697923856945823,
        "d9927ffd3fccbcbef03c961dcad2d9516ea0aba898c4384f627b2f8c0391c92b", [506, 504],
        "596e18624ed59574d26cd0eab325242a1dec7c486436a0d5245a4a66879d2938"),
    ("striped_uneven", "reverse", False): ("3d37c163ce9ebd120e09e1d1188625ec9436021e6b796b89eea74e4c3aa8d212",
        4000, 228978432639247061097304697923856945823,
        "d9927ffd3fccbcbef03c961dcad2d9516ea0aba898c4384f627b2f8c0391c92b", [563, 500],
        "b0f6fead2a597c962c3dcaf56046fa813270df51fb5c34b384928930f63afb57"),
    ("striped_uneven", "duplicate_heavy", True): ("5842995de3671133804067a8d6a15f7180b37416c97ba37a922eaa7fecc19af7",
        4000, 228978432539913827087468081224875788356,
        "3320ec9af26c9a69408961a370130c82a5340609e0b8e6ebe7c47d4ece52bd7f", [505, 502],
        "596e18624ed59574d26cd0eab325242a1dec7c486436a0d5245a4a66879d2938"),
    ("striped_uneven", "duplicate_heavy", False): ("055caa6f88528ec619b241299381a402293c9b856a063aff9f1a93b86ea89943",
        4000, 228978432539913827087468081224875788356,
        "3320ec9af26c9a69408961a370130c82a5340609e0b8e6ebe7c47d4ece52bd7f", [563, 500],
        "b0f6fead2a597c962c3dcaf56046fa813270df51fb5c34b384928930f63afb57"),
    ("striped_uneven", "worst_case_shift", True): ("e11789e9e4ed3b0fef69f1febc3c38d8425c9318a191065c4a914669da6b8729",
        4000, 228978435517748842924093568832649482911,
        "4c5a6ade0247f08ca410919f5fb69ba2ca4878b4acf7b7c09759d8abe4daba6b", [505, 503],
        "596e18624ed59574d26cd0eab325242a1dec7c486436a0d5245a4a66879d2938"),
    ("striped_uneven", "worst_case_shift", False): ("5ade49b738d5265c6cb0f2ce76bf34baa987bd058851222f559ff41311722278",
        4000, 228978435517748842924093568832649482911,
        "4c5a6ade0247f08ca410919f5fb69ba2ca4878b4acf7b7c09759d8abe4daba6b", [563, 500],
        "b0f6fead2a597c962c3dcaf56046fa813270df51fb5c34b384928930f63afb57"),
}


def sorted_case(case: str, kind: str, randomize: bool):
    """The config, cluster, generated input and result of one case."""
    engine, config = CASES[case]
    cfg = MachineConfig(**config, seed=SEED, randomize=randomize)
    cluster = Cluster(cfg)
    gen = generate_input(cluster, InputSpec(kind, cfg.N, cfg.seed))
    return cfg, cluster, gen, run_sort(cluster, gen.pe_blocks, engine)


@pytest.mark.parametrize("randomize", [True, False], ids=["shuffle", "noshuffle"])
@pytest.mark.parametrize("kind", INPUT_KINDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_counters_inputs_and_outputs_match_the_record(case, kind, randomize):
    cfg, cluster, gen, result = sorted_case(case, kind, randomize)
    assert recorded_values(cfg, cluster, gen, result, kind) \
        == RECORDED[case, kind, randomize]


@pytest.mark.parametrize("loads", [1, 3])
@pytest.mark.parametrize("randomize", [True, False], ids=["shuffle", "noshuffle"])
@pytest.mark.parametrize("kind", INPUT_KINDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_the_record_holds_across_formation_window_edges(case, kind,
                                                        randomize, loads):
    """The same values with run formation in windows of one and of three
    memory loads, where every case fits one default window: a window of
    one load, window edges between the runs of each case, and the short
    last load of ``striped_uneven`` in a window of its own."""
    with formation_window(MachineConfig(**CASES[case][1]), loads):
        cfg, cluster, gen, result = sorted_case(case, kind, randomize)
    assert recorded_values(cfg, cluster, gen, result, kind) \
        == RECORDED[case, kind, randomize]


def recorded_values(cfg, cluster, gen, result, kind: str):
    """The five recorded values of a sorted case."""
    stats = "\n".join(line for line in report_stats(cfg, result, kind).splitlines()
                      if not line.startswith("# wall_seconds="))
    layout = result.layout
    out = cluster.peek_blocks(layout.pes, layout.lbs)
    columns = out["key"].astype("<u8").tobytes() + out["serial"].astype("<i8").tobytes()
    ids = layout.pes.astype("<i8").tobytes() + layout.lbs.astype("<i8").tobytes()
    return (hashlib.sha256(stats.encode()).hexdigest(), gen.count, gen.total,
            hashlib.sha256(columns).hexdigest(),
            [cluster.peak_allocated(pe) for pe in range(cfg.P)],
            hashlib.sha256(ids).hexdigest())


@pytest.mark.parametrize("randomize", [True, False], ids=["shuffle", "noshuffle"])
@pytest.mark.parametrize("kind", INPUT_KINDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_striped_merge_traffic_is_the_coordinators_reads_and_writes(
        case, kind, randomize):
    """Every remote block the coordinator (PE 0) reads is sent to it and
    every remote block it writes is sent by it: PE p != 0 sends
    B*blocks_read[p] and receives B*blocks_written[p], and PE 0 sends and
    receives the sums of those over p != 0.  The canonical engine runs no
    striped merge, so every term is 0."""
    cfg, cluster, _gen, result = sorted_case(case, kind, randomize)
    merge, B = PHASE_STRIPED_MERGE, cfg.B
    blocks, traffic = cluster.counters.blocks[merge], cluster.counters.traffic[merge]
    read = (B * blocks[READ].sum(0)).tolist()           # per PE
    written = (B * blocks[WRITE].sum(0)).tolist()
    assert traffic[SENT].tolist() == [sum(written[1:])] + read[1:]
    assert traffic[RECEIVED].tolist() == [sum(read[1:])] + written[1:]
    assert (sum(read) > 0) == (result.engine == "striped")
