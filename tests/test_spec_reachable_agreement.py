"""``reachable(x_σ)`` has one rule: the checker's snapshot against the world.

``World.reachable_of`` reads the live world (home reachable, or a
reachable node holding a live copy); ``StateSnapshot.reachable_of`` must
give the same answer from what ``TraceRecorder`` wrote down at σ.  The
state machine walks generated crash / partition / replica-placement
states — members added with any home and replica set, removed cleanly or
with the remove's home crashed on a WAL step (home object gone, replica
copies live, entry still listed), replica copies tombstoned out from
under a listing, listings dropped from over live copies — and after
every step compares the two for the current members and for a stale
``s_first`` that still names everything the run has ever seen.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import ReproError
from repro.spec.termination import Yielded
from repro.spec.trace import TraceRecorder
from repro.store import Element, Repository

from helpers import CLIENT, standard_world

SERVERS = ("s0", "s1", "s2", "s3")
servers = st.sampled_from(SERVERS)
nodes = st.sampled_from(SERVERS + (CLIENT,))


class ReachableAgreementMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.kernel, self.net, self.world, _ = standard_world(
            n_servers=len(SERVERS), scrub_interval=0.5)
        for i, replicas in enumerate([(), ("s2",), ("s0", "s3")]):
            self.world.seed_member("coll", f"seed{i}", value=i, home="s1",
                                   replicas=replicas)
        # the writer sits on the primary, so a cut-off client still mutates
        self.repo = Repository(self.world, "s0", rpc_timeout=0.5)
        self.recorder = TraceRecorder(self.world, "coll", CLIENT)
        self.ever = set(self.world.true_members("coll"))
        self.steps = 0

    def drive(self, gen):
        def guarded():
            try:
                yield from gen
            except ReproError:
                pass                # a refused or failed write is a state too

        self.kernel.run_process(guarded())

    def members(self):
        return sorted(self.world.true_members("coll"))

    # -- connectivity --------------------------------------------------------
    @rule(node=nodes)
    def crash(self, node):
        if self.net.node(node).up:
            self.net.crash(node)

    @rule(node=nodes)
    def recover(self, node):
        self.net.recover(node)

    @rule(node=nodes)
    def isolate(self, node):
        self.net.isolate(node)

    @rule()
    def heal(self):
        self.net.heal()

    # -- membership and replica placement ------------------------------------
    @rule(home=servers, replicas=st.lists(servers, max_size=3, unique=True))
    def add(self, home, replicas):
        self.drive(self.repo.add("coll", f"k{self.steps}", value=self.steps,
                                 home=home, replicas=tuple(replicas)))

    @rule(pick=st.integers(min_value=0), step=st.sampled_from(
        [None, "begin", "home-deleted", "added"]))
    def remove(self, pick, step):
        members = self.members()
        if not members:
            return
        if step is not None:
            self.world.server("s0").wal.arm_crash(step)
        self.drive(self.repo.remove("coll", members[pick % len(members)]))

    @rule(pick=st.integers(min_value=0), which=st.integers(min_value=0))
    def tombstone_a_replica_copy(self, pick, which):
        replicated = [e for e in self.members() if e.replicas]
        if not replicated:
            return
        element = replicated[pick % len(replicated)]
        holder = element.replicas[which % len(element.replicas)]
        stored = self.world.servers[holder].objects.get(element.oid)
        if stored is not None:
            stored.deleted = True

    @rule(pick=st.integers(min_value=0))
    def unlist_leaving_the_copies(self, pick):
        """A raw pop at the primary: the entry goes, every copy stays —
        the state only the stale ``s_first`` can still ask about."""
        members = self.members()
        if members:
            state = self.world.servers["s0"].collections["coll"]
            state.members.pop(members[pick % len(members)].name)

    @rule(seconds=st.sampled_from([0.1, 1.0, 3.0]))
    def settle(self, seconds):
        self.kernel.run(until=self.kernel.now + seconds)

    # -- the comparison ------------------------------------------------------
    @invariant()
    def snapshot_and_world_agree(self):
        # One invocation of a run that never ends: its entry snapshot is
        # the recorder's account of the current state.
        self.steps += 1
        self.recorder.invocation_started()
        probe = Element(f"probe{self.steps}", f"probe-{self.steps}", "s0")
        snap = self.recorder.invocation_completed(Yielded(probe)).entry_snapshot
        current = self.world.true_members("coll")
        self.ever |= current
        assert snap.members == current
        for x in (current, frozenset(self.ever)):
            assert snap.reachable_of(x) == self.world.reachable_of(x, CLIENT)


ReachableAgreementMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None)
TestReachableAgreement = ReachableAgreementMachine.TestCase


def test_a_copy_behind_an_unreachable_home_is_recorded_and_round_trips():
    """The deterministic case, through pickling: home down, one replica
    up, one replica down too."""
    import pickle

    from repro.spec.termination import Returned

    kernel, net, world, _ = standard_world(n_servers=len(SERVERS))
    element = world.seed_member("coll", "m", value="v", home="s1",
                                replicas=("s2", "s3"))
    net.crash("s1")
    net.crash("s3")
    recorder = TraceRecorder(world, "coll", CLIENT)
    recorder.invocation_started()
    recorder.invocation_completed(Returned())
    [snap] = recorder.trace.invocations[0].snapshots
    assert snap.live_replicas == {("s2", element.oid)}
    assert snap.reachable_of(snap.members) == {element}
    rebuilt = pickle.loads(pickle.dumps(recorder.trace))
    assert rebuilt.invocations[0].snapshots == (snap,)
    assert rebuilt.first_candidates[0].live_replicas == snap.live_replicas
