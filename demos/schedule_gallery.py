"""Print the periodic TDMA transmit sets for both relaying modes.

Traditional relaying splits its period into a forward half and a
reverse half of Z slots each. The coded mode serves both directions
from a single set per slot, so its period is Z, not 2Z.
"""

from multihop import tr_schedule, nc_schedule


def show(nodes, z):
    print("line of %d nodes, spatial reuse Z = %d" % (nodes, z))
    tr = tr_schedule(nodes, z)
    print("  traditional, period %d" % tr.period)
    for s, (direction, on_air) in enumerate(tr.sets, 1):
        print("    slot %d (%s): %s" % (s, direction, sorted(on_air)))
    nc = nc_schedule(nodes, z)
    print("  coded, period %d" % nc.period)
    for s in range(1, nc.period + 1):
        print("    slot %d: %s" % (s, sorted(nc.slot(s)[1])))
    print()


show(5, 3)
show(6, 2)

# A Schedule holds each slot as its direction and the same set of
# nodes on air, and repeats forever: slot period+1 is slot 1 again.
sched = tr_schedule(5, 3)
first = sched.slot(1)
again = sched.slot(1 + sched.period)
print("traditional schedule, 5 nodes, Z = 3")
print("  period %d, slot 1 transmitters: %s"
      % (sched.period, sorted(first[1])))
print("  slot %d equals slot 1: %s" % (1 + sched.period, first == again))

sched = nc_schedule(5, 3)
print("coded schedule, 5 nodes, Z = 3")
print("  period %d, slot 1 transmitters: %s"
      % (sched.period, sorted(sched.slot(1)[1])))

# Co-transmitters are always Z apart, which is what keeps the
# interference geometry identical from period to period.
sched = nc_schedule(10, 3)
for s in range(1, 4):
    nodes = sorted(sched.slot(s)[1])
    gaps = [b - a for a, b in zip(nodes, nodes[1:])]
    print("  10 nodes, Z = 3, slot %d: %s gaps %s" % (s, nodes, gaps))
