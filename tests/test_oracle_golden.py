"""The brute-force oracle's answers, pinned, and its per-vehicle optimality.

``GOLDEN`` was recorded with the cross-fleet branch-and-bound oracle that
the per-vehicle path search replaced, on ``random_tiny_instance`` keys 0-19
with crossings on and off and on the ``tiny-oracle`` benchmark instances.
At alpha 0.5 and 1 it pins tours, per-vehicle costs and objective (one
SHA-256 over both results' ``repr``); at alpha 0 only the objective, since
there a non-bottleneck vehicle's order does not change the objective and
the old oracle did not always pick its cheapest one.
"""

import dataclasses
import hashlib
import itertools
import json
import random

import pytest

from ghmdatsp import build_instance
from ghmdatsp.cli import tour_document
from ghmdatsp.exact import solve_bruteforce
from ghmdatsp.roadmap import build_roadmap

from conftest import random_tiny_instance

#: instance -> (SHA-256 of the alpha-0.5 and alpha-1 results, alpha-0 objective)
GOLDEN = {
    "random-0-nin": ("2977b920e84898e034195ec7440785acfdd67d3627766dbd7f8b07ea7ec585f1",
                     3218.775271404041),
    "random-0-nonin": ("255eddd0cbadd1db63e920f899fee199f3e2f802516ba7c3bf8ed5498068f7ff",
                       3669.3123715458187),
    "random-1-nin": ("10baa79ad05ed63539ece397851357e95aac271eb237ee0420db02367193a10e",
                     3527.713798789137),
    "random-1-nonin": ("10baa79ad05ed63539ece397851357e95aac271eb237ee0420db02367193a10e",
                       3527.713798789137),
    "random-2-nin": ("894680c157f006cfa4cba472b8e0ba9ce82326992f1ac3c3031bcc83e2412149",
                     2841.2488215788603),
    "random-2-nonin": ("894680c157f006cfa4cba472b8e0ba9ce82326992f1ac3c3031bcc83e2412149",
                       2841.2488215788603),
    "random-3-nin": ("25a596f5abaf404d58ac6c9545ff55a29fe34127de9998659d5ddcc8724841b9",
                     2229.107495183403),
    "random-3-nonin": ("0b53b5cfc1716cea560f737ad8365d0f6d786e4c22e8fe7a47cacd196894d974",
                       2231.327398053334),
    "random-4-nin": ("6391b94183feb55050e4e0e7927a53b380742b50f0c7e8f52ba810aeee0fdce8",
                     4052.881628996131),
    "random-4-nonin": ("6391b94183feb55050e4e0e7927a53b380742b50f0c7e8f52ba810aeee0fdce8",
                       4052.881628996131),
    "random-5-nin": ("b266dc4a5203f3affb57879ceb5cd2804516bb27ff19984e36d04e196b7d1a74",
                     1871.1809093941415),
    "random-5-nonin": ("6b5bd732098afce8af80c23a0c0d857d00fea04caa22dddf797447e57c2e1b45",
                       2073.4783555416757),
    "random-6-nin": ("92b40bd6c663572c0ef5a5f66ecc0f0884349049d5fdadf175941c5aa0e4955b",
                     2989.940937102204),
    "random-6-nonin": ("92b40bd6c663572c0ef5a5f66ecc0f0884349049d5fdadf175941c5aa0e4955b",
                       2989.940937102204),
    "random-7-nin": ("b82d932fa71700b4fc7bfbcbc0aebdb29f47d54bc1f9ac1308fb0801adba4d82",
                     3644.7288449252146),
    "random-7-nonin": ("b82d932fa71700b4fc7bfbcbc0aebdb29f47d54bc1f9ac1308fb0801adba4d82",
                       3644.7288449252146),
    "random-8-nin": ("43030a313b4a720973480478939d5029f6bf67db56c7ffe726e8bef641697382",
                     2453.5098956376246),
    "random-8-nonin": ("43030a313b4a720973480478939d5029f6bf67db56c7ffe726e8bef641697382",
                       2453.5098956376246),
    "random-9-nin": ("ede87394b7e5529fc279df70c397318d6d3acd7a99669adbe0d517e52836c931",
                     3561.8615170994567),
    "random-9-nonin": ("ede87394b7e5529fc279df70c397318d6d3acd7a99669adbe0d517e52836c931",
                       3561.8615170994567),
    "random-10-nin": ("fb0e23a9cbd43372afa32d8ebf44a041776896c78591feb3afada4e80f2a501d",
                      3552.6323400084057),
    "random-10-nonin": ("840036f21c7e8c5644f6e5fa5f9e4af3b1fcb98d53d96b589d673c5fdb8d78fa",
                        3570.4805806184777),
    "random-11-nin": ("a2af492d087dff9bf56c5aa46a46336c1d2ce7206493c89700791a2f518adfe6",
                      1935.6903635943181),
    "random-11-nonin": ("a2af492d087dff9bf56c5aa46a46336c1d2ce7206493c89700791a2f518adfe6",
                        1935.6903635943181),
    "random-12-nin": ("4f73d290a9d49a0168363b360fe92b94c282a794e7dc60a0e4c4cc370474e839",
                      2351.4706203908368),
    "random-12-nonin": ("9d02f6512972ddd841e10282226fe21ee55d8af9c5fce29fe6bf112da27afe94",
                        2562.912633439251),
    "random-13-nin": ("142f6f9fc2a57f40d3bc82f863bc294e382c6a9129b61d61f27f9b1abcf4e42a",
                      2433.25270747767),
    "random-13-nonin": ("142f6f9fc2a57f40d3bc82f863bc294e382c6a9129b61d61f27f9b1abcf4e42a",
                        2433.25270747767),
    "random-14-nin": ("d62d5fb3d495132363db27898c7d7af0dad9d1f38cb81549dd65e67c812e08c5",
                      3491.460088051889),
    "random-14-nonin": ("d62d5fb3d495132363db27898c7d7af0dad9d1f38cb81549dd65e67c812e08c5",
                        3491.460088051889),
    "random-15-nin": ("c5c281465531f7b53211335395f08bc87823f36128e820a949c2af1f4f9507d1",
                      1819.1840439435584),
    "random-15-nonin": ("c5c281465531f7b53211335395f08bc87823f36128e820a949c2af1f4f9507d1",
                        1819.1840439435584),
    "random-16-nin": ("de09d0da4b0a7acdaddeca09ecae9d6d5de576d2e7c93d23bf3ab3dd0ebde448",
                      2130.058062754315),
    "random-16-nonin": ("bc95a9830120cabec94e90f896b1e3131d64b923273795b6d95e65b67eaaf635",
                        2187.7195756981614),
    "random-17-nin": ("9c518368c5883038c4befeb152f9fa91e061959973704ef45485045d6f6ad19a",
                      1493.6978451435762),
    "random-17-nonin": ("9c518368c5883038c4befeb152f9fa91e061959973704ef45485045d6f6ad19a",
                        1493.6978451435762),
    "random-18-nin": ("6da8f50b0d4e0afde869506764f753a074e6a63a1f361c32dc5b88f35705fe0e",
                      2640.2257903234718),
    "random-18-nonin": ("388d877a2a341a2cef16b96982553ef0217b23ba74451de57bb405edc0c6d7a4",
                        2705.030866865721),
    "random-19-nin": ("fd0b585e55bfbcbc7b7e506ad6ea171ef622d74a464a5db4ce76ff5af9572ae8",
                      2635.449093488609),
    "random-19-nonin": ("fd0b585e55bfbcbc7b7e506ad6ea171ef622d74a464a5db4ce76ff5af9572ae8",
                        2635.449093488609),
    "tiny-oracle-1000": ("a75f6e982db6a2da67959f58afacd9270824b8c804f3ce91e55c5bdeb63099f9",
                         2352.4866745391355),
    "tiny-oracle-1001": ("6f81dbb217a6267e484bc6ca5c86836e03e10617ac94d82b6b2b177a28251f5b",
                         2456.813410492291),
    "tiny-oracle-1002": ("528cc2bb13ff660d1f8f9342a3754784e5f635c0cb5c2639a957bfc64d1756c0",
                         2493.5054356859027),
    "tiny-oracle-1003": ("41fbcc61899f60d497efe1ca6881fcae3e1d5a05faed3f3d388a95da1fe7cbaa",
                         2405.0121237666626),
    "tiny-oracle-1004": ("0ca1b1f5d59f97bbd823ce1d5c89fb4364f057f7853dd616b4a3fc07accf7e06",
                         2520.3645418518277),
    "tiny-oracle-2000": ("d681ce3fa87bfbe24d8dea4048d1ce76a4ac67de36b86aa5ca5830f30fba5bcb",
                         2599.60360233128),
    "tiny-oracle-2001": ("18930c4341b8f59bbdcc602bd09df7550c23877290c64c76cec547775c4d1cd0",
                         2667.6199207991376),
    "tiny-oracle-2002": ("54270ca7b8bc7220487ac3e5e81222e7dcc507aafd0aa09d28a780f75bc137f2",
                         2384.6519055772324),
    "tiny-oracle-2003": ("5dd0ec803c0e653a4a4591e754ed4050a761abe9cf6c7d208dc85367d5e8f793",
                         2351.9714164010047),
    "tiny-oracle-2004": ("aae333d0f1a2b8bec8e812c49188fa668ad31acf63349fc517344eb56f92c882",
                         2559.439923299803),
    "tiny-oracle-5000": ("5fb38d74750ea7937d9c2220d0e6767443abd9d9e50dab9a5d1b6ec4c3ae39e8",
                         2597.20767662847),
    "tiny-oracle-7001": ("35682b980f06d64842b0631708682d32c4a71499a1947333e85abe54c171e063",
                         2655.2138768424584),
}

#: ``tiny-oracle`` sub-seed -> SHA-256 of its oracle tour document
DOCUMENTS = {
    1000: "63ff119705c2fe3738c5e8d53e809efdce202240b13d25951b189ec573e6d58a",
    1001: "d00cabfd26e947047ff07c0df4b7d0f37043d3f1e473f608ae0b73328fda4ad1",
    1002: "1a24f9cc11314e722be33830258ea3c7d16c4f9bc5d1c2c5004256f191dcb37d",
    1003: "48e8be3a3c78ee70efb61385cae4b627e85a2b2c1257ef8cb76435cecb254742",
    1004: "275b7f1e9ba3a09be3f56319f7b865877b9f340d1325a16b98ead44d235be6e8",
}


def tiny_oracle_instance(seed: int):
    """The benchmark's ``tiny-oracle`` instance: 6 jittered tasks, 2 vehicles."""
    g = random.Random(seed)
    centers = [(x + g.uniform(-150.0, 150.0), y + g.uniform(-150.0, 150.0))
               for x in (200.0, 600.0, 1000.0) for y in (300.0, 900.0)]
    return build_instance(centers, n_vehicles=2, samples_per_cluster=2, velocity=50.0,
                          depots=[(0.0, 0.0), (1200.0, 1200.0)], sensing_range=150.0,
                          alpha=0.5, seed=seed)


def named_instance(name: str):
    """``tiny-oracle-<seed>`` or ``random-<key>-nin`` / ``random-<key>-nonin``."""
    if name.startswith("tiny-oracle-"):
        return tiny_oracle_instance(int(name.rsplit("-", 1)[1]))
    _, key, crossings = name.split("-")
    return random_tiny_instance(int(key), nin=crossings == "nin")


def oracle_at(inst, alpha: float):
    rm = build_roadmap(dataclasses.replace(inst, alpha=alpha))
    return rm, solve_bruteforce(rm)


@pytest.mark.parametrize("name", GOLDEN)
def test_oracle_matches_recorded_results(name):
    inst = named_instance(name)
    results = [oracle_at(inst, alpha)[1] for alpha in (0.5, 1.0)]
    text = "\n".join(repr((ts.tours, ts.per_vehicle_cost, ts.objective)) for ts in results)
    digest, objective_at_zero = GOLDEN[name]
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert oracle_at(inst, 0.0)[1].objective == objective_at_zero


@pytest.mark.parametrize("seed", DOCUMENTS)
def test_oracle_tour_document_is_byte_stable(seed):
    inst = tiny_oracle_instance(seed)
    rm, ts = oracle_at(inst, inst.alpha)
    text = json.dumps(tour_document(inst, rm, ts, "ORACLE", ts.objective),
                      indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DOCUMENTS[seed]


@pytest.mark.parametrize("nin", [True, False])
@pytest.mark.parametrize("key", range(20))
def test_each_vehicle_takes_its_cheapest_order_at_alpha_zero(key, nin):
    inst = random_tiny_instance(key, nin=nin)
    assert inst.n_tasks <= 5
    rm, ts = oracle_at(inst, 0.0)
    for k, tour in zip(rm.vehicle_ids, ts.tours):
        cheapest = min(rm.tour_cost(k, [tour[0], *order, tour[-1]])
                       for order in itertools.permutations(tour[1:-1]))
        assert rm.tour_cost(k, tour) == cheapest
