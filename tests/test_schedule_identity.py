"""Schedule identity: frozen CRC-32 digests of every registry algorithm.

The registry goldens (``tests/goldens/registry_goldens.json``) pin only
makespan, C1 and C2 on instances with at most 18 cells, so a reordered
RNG draw or a changed priority tie-break could slip past them.  This
suite pins the CRC-32 of the ``start`` and ``assignment`` arrays of all
13 registry algorithms on each of the 8 :data:`INSTANCE_FAMILIES`
(n=256, k=4, m=8, seeds 0 and 1), plus one run per algorithm with a
:func:`block_assignment` passed in.  Any refactor of the schedulers must
leave every digest unchanged.

Digests are over ``int64`` bytes, like the bench report's checksum.
"""

import zlib

import numpy as np
import pytest

from repro.core.assignment import block_assignment
from repro.heuristics import algorithm_names, get_algorithm
from repro.instances import INSTANCE_FAMILIES, make_instance

N_CELLS, K, M, SEEDS = 256, 4, 8, (0, 1)

#: ``{family: {algorithm: ((start, assignment) digest per seed)}}``.
_FAMILY_GOLD = {
    "identical_chains": {
        "random_delay": ((2190999247, 658001267), (2911664698, 2560059509)),
        "random_delay_priority": ((2384838420, 658001267), (3277085471, 2560059509)),
        "improved_random_delay": ((2190999247, 658001267), (2911664698, 2560059509)),
        "improved_random_delay_priority": ((2384838420, 658001267), (3277085471, 2560059509)),
        "level": ((3905075810, 3508365687), (3389790993, 2142372285)),
        "level_delays": ((2384838420, 658001267), (3277085471, 2560059509)),
        "descendant": ((3905075810, 3508365687), (3389790993, 2142372285)),
        "descendant_delays": ((2384838420, 658001267), (593978496, 2560059509)),
        "dfds": ((3393207669, 3508365687), (679365035, 2142372285)),
        "dfds_delays": ((2967377971, 3508365687), (335637389, 2142372285)),
        "blevel": ((3905075810, 3508365687), (3389790993, 2142372285)),
        "blevel_delays": ((2384838420, 658001267), (593978496, 2560059509)),
        "fifo": ((115559677, 3508365687), (1499252263, 2142372285)),
    },
    "rotated_chains": {
        "random_delay": ((4244309393, 658001267), (2604854953, 2560059509)),
        "random_delay_priority": ((1630520630, 658001267), (3989560730, 2560059509)),
        "improved_random_delay": ((4244309393, 658001267), (2604854953, 2560059509)),
        "improved_random_delay_priority": ((1630520630, 658001267), (3989560730, 2560059509)),
        "level": ((4273007974, 3508365687), (1788412591, 2142372285)),
        "level_delays": ((1630520630, 658001267), (3989560730, 2560059509)),
        "descendant": ((4273007974, 3508365687), (1788412591, 2142372285)),
        "descendant_delays": ((1630520630, 658001267), (3997085938, 2560059509)),
        "dfds": ((2463263799, 3508365687), (1152686820, 2142372285)),
        "dfds_delays": ((870631377, 3508365687), (260807421, 2142372285)),
        "blevel": ((4273007974, 3508365687), (1788412591, 2142372285)),
        "blevel_delays": ((1630520630, 658001267), (3997085938, 2560059509)),
        "fifo": ((3382435458, 3508365687), (4132699007, 2142372285)),
    },
    "opposing_chains": {
        "random_delay": ((972289433, 658001267), (721164933, 2560059509)),
        "random_delay_priority": ((1053663264, 658001267), (4046216109, 2560059509)),
        "improved_random_delay": ((972289433, 658001267), (721164933, 2560059509)),
        "improved_random_delay_priority": ((1053663264, 658001267), (4046216109, 2560059509)),
        "level": ((3227735431, 3508365687), (3402201417, 2142372285)),
        "level_delays": ((1053663264, 658001267), (4046216109, 2560059509)),
        "descendant": ((3227735431, 3508365687), (3402201417, 2142372285)),
        "descendant_delays": ((1053663264, 658001267), (190023386, 2560059509)),
        "dfds": ((3197734593, 3508365687), (3562963617, 2142372285)),
        "dfds_delays": ((2371926870, 3508365687), (3989726768, 2142372285)),
        "blevel": ((3227735431, 3508365687), (3402201417, 2142372285)),
        "blevel_delays": ((1053663264, 658001267), (190023386, 2560059509)),
        "fifo": ((738473606, 3508365687), (3518487633, 2142372285)),
    },
    "fork_join": {
        "random_delay": ((1002766130, 818377523), (111681849, 605687346)),
        "random_delay_priority": ((270431069, 818377523), (1133387364, 605687346)),
        "improved_random_delay": ((2285086293, 818377523), (1784192353, 605687346)),
        "improved_random_delay_priority": ((1501181373, 818377523), (731650202, 605687346)),
        "level": ((683179579, 3754165109), (137778572, 4150146775)),
        "level_delays": ((270431069, 818377523), (1133387364, 605687346)),
        "descendant": ((683179579, 3754165109), (137778572, 4150146775)),
        "descendant_delays": ((270431069, 818377523), (1098390694, 605687346)),
        "dfds": ((411584821, 3754165109), (161857679, 4150146775)),
        "dfds_delays": ((1362255968, 3754165109), (2452663062, 4150146775)),
        "blevel": ((683179579, 3754165109), (137778572, 4150146775)),
        "blevel_delays": ((270431069, 818377523), (1098390694, 605687346)),
        "fifo": ((1231317177, 3754165109), (2050853626, 4150146775)),
    },
    "wide_shallow": {
        "random_delay": ((3523687370, 658001267), (1284981767, 2560059509)),
        "random_delay_priority": ((3232883700, 658001267), (635793921, 2560059509)),
        "improved_random_delay": ((2777754905, 658001267), (3915876145, 2560059509)),
        "improved_random_delay_priority": ((2133788848, 658001267), (1599080783, 2560059509)),
        "level": ((69213195, 3508365687), (1447104505, 2142372285)),
        "level_delays": ((3232883700, 658001267), (635793921, 2560059509)),
        "descendant": ((138037860, 3508365687), (2091077569, 2142372285)),
        "descendant_delays": ((4045882829, 658001267), (3092040214, 2560059509)),
        "dfds": ((69213195, 3508365687), (1447104505, 2142372285)),
        "dfds_delays": ((3656959175, 3508365687), (2289378955, 2142372285)),
        "blevel": ((69213195, 3508365687), (1447104505, 2142372285)),
        "blevel_delays": ((3232883700, 658001267), (448656269, 2560059509)),
        "fifo": ((2268454632, 3508365687), (571110476, 2142372285)),
    },
    "random_layered": {
        "random_delay": ((2430120137, 658001267), (1828266387, 2560059509)),
        "random_delay_priority": ((4076649961, 658001267), (2069113221, 2560059509)),
        "improved_random_delay": ((2833786774, 658001267), (4140306803, 2560059509)),
        "improved_random_delay_priority": ((1680557567, 658001267), (4179669792, 2560059509)),
        "level": ((3505010283, 3508365687), (399739849, 2142372285)),
        "level_delays": ((4076649961, 658001267), (2069113221, 2560059509)),
        "descendant": ((784133927, 3508365687), (472433053, 2142372285)),
        "descendant_delays": ((1428476425, 658001267), (1780496834, 2560059509)),
        "dfds": ((3897850702, 3508365687), (3191122901, 2142372285)),
        "dfds_delays": ((2301892258, 3508365687), (329467175, 2142372285)),
        "blevel": ((760928905, 3508365687), (4160194316, 2142372285)),
        "blevel_delays": ((1603755102, 658001267), (2506407557, 2560059509)),
        "fifo": ((2518774656, 3508365687), (2057346756, 2142372285)),
    },
    "tree_sweeps": {
        "random_delay": ((273357401, 1163615466), (572853657, 4214804937)),
        "random_delay_priority": ((101990546, 1163615466), (2598950100, 4214804937)),
        "improved_random_delay": ((266969357, 1163615466), (1872905386, 4214804937)),
        "improved_random_delay_priority": ((2474707033, 1163615466), (2936233464, 4214804937)),
        "level": ((3818187666, 1012721555), (3151475127, 3771081285)),
        "level_delays": ((101990546, 1163615466), (2598950100, 4214804937)),
        "descendant": ((1985400547, 1012721555), (2622164895, 3771081285)),
        "descendant_delays": ((1345893027, 1163615466), (1828114420, 4214804937)),
        "dfds": ((1033847634, 1012721555), (3526150489, 3771081285)),
        "dfds_delays": ((2506184627, 1012721555), (3687487526, 3771081285)),
        "blevel": ((3818187666, 1012721555), (3151475127, 3771081285)),
        "blevel_delays": ((101990546, 1163615466), (1933076170, 4214804937)),
        "fifo": ((1512760951, 1012721555), (3707848918, 3771081285)),
    },
    "butterfly": {
        "random_delay": ((4047156492, 2268570632), (123930376, 2418730285)),
        "random_delay_priority": ((2062098758, 2268570632), (523562569, 2418730285)),
        "improved_random_delay": ((2952768969, 2268570632), (961296088, 2418730285)),
        "improved_random_delay_priority": ((194918529, 2268570632), (897580612, 2418730285)),
        "level": ((437362922, 3630228441), (2458833063, 3538014084)),
        "level_delays": ((2062098758, 2268570632), (523562569, 2418730285)),
        "descendant": ((437362922, 3630228441), (2458833063, 3538014084)),
        "descendant_delays": ((2062098758, 2268570632), (2230784339, 2418730285)),
        "dfds": ((1340097512, 3630228441), (3287586143, 3538014084)),
        "dfds_delays": ((2845475160, 3630228441), (3724969257, 3538014084)),
        "blevel": ((437362922, 3630228441), (2458833063, 3538014084)),
        "blevel_delays": ((2062098758, 2268570632), (2230784339, 2418730285)),
        "fifo": ((1251912216, 3630228441), (4281301888, 3538014084)),
    },
}

#: ``{algorithm: (start, assignment) digest}`` on ``random_layered`` (seed
#: 1) with 16-cell blocks lifted by ``block_assignment(seed=0)``.
_BLOCK_GOLD = {
    "random_delay": (736690682, 1221384462),
    "random_delay_priority": (1064998015, 1221384462),
    "improved_random_delay": (3954528789, 1221384462),
    "improved_random_delay_priority": (2480391300, 1221384462),
    "level": (3170352809, 1221384462),
    "level_delays": (1064998015, 1221384462),
    "descendant": (424655795, 1221384462),
    "descendant_delays": (1092346582, 1221384462),
    "dfds": (3460267461, 1221384462),
    "dfds_delays": (2313878634, 1221384462),
    "blevel": (3966929599, 1221384462),
    "blevel_delays": (2729955771, 1221384462),
    "fifo": (1552652978, 1221384462),
}


def _crc(a) -> int:
    return zlib.crc32(np.ascontiguousarray(a, dtype=np.int64).tobytes())


def _digest(sched) -> tuple[int, int]:
    return _crc(sched.start), _crc(sched.assignment)


def test_goldens_cover_the_registry():
    assert list(_FAMILY_GOLD) == list(INSTANCE_FAMILIES)
    for family, per_alg in _FAMILY_GOLD.items():
        assert list(per_alg) == algorithm_names(), family
    assert list(_BLOCK_GOLD) == algorithm_names()


@pytest.mark.parametrize("family", list(INSTANCE_FAMILIES))
def test_family_schedules_identical(family):
    inst = make_instance(family, n=N_CELLS, k=K, seed=0)
    for name in algorithm_names():
        got = tuple(
            _digest(get_algorithm(name)(inst, M, seed=s)) for s in SEEDS
        )
        assert got == _FAMILY_GOLD[family][name], f"{family}/{name}"


def test_block_assignment_schedules_identical():
    inst = make_instance("random_layered", n=N_CELLS, k=K, seed=0)
    blocks = np.arange(inst.n_cells) // 16
    for name in algorithm_names():
        assignment = block_assignment(blocks, M, seed=0)
        sched = get_algorithm(name)(inst, M, seed=1, assignment=assignment)
        assert _digest(sched) == _BLOCK_GOLD[name], name
