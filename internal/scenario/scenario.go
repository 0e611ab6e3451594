// Package scenario is the randomized end-to-end harness: a generator that,
// from a single uint64 seed, deterministically emits a scenario — topology,
// termination policy, pipeline window, page/durability/transfer policies,
// a workload script (the three paper applications plus a patch-storm over a
// large object) and a fault schedule drawn from the lab's injection
// primitives (partitions, crash/restart with WAL recovery, disk faults,
// evict/rejoin, mid-transfer kills, adversary attacks) — and an executor
// that runs the scenario in a lab.World and checks global invariants
// (agreed-state convergence, evidence-chain verification and coverage,
// bounded disk usage, recovered-party rejoin, no adversary-induced
// divergence) instead of per-scenario expectations.
//
// Every failure reports the scenario seed; the same seed reproduces the
// same scenario byte-for-byte, so any soak failure is replayable with
//
//	go test ./internal/scenario -run TestRunSeed -run-seed <seed>
//
// or `go run ./cmd/b2bsoak -run-seed <seed>`.
package scenario

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"b2b/internal/apps"
)

// Workload selects the application driven over the object.
type Workload uint8

// Workloads.
const (
	// PatchStorm streams small in-place patches over a large object from a
	// single writer at pipeline window W (update mode, paged identity).
	PatchStorm Workload = iota
	// TicTacToe plays a legal random game between the first two parties;
	// any further parties validate as observers (overwrite mode).
	TicTacToe
	// Auction rotates strictly-increasing bids between the first two
	// houses; every party is a registered house and validates.
	Auction
	// OrderProcessing alternates customer item additions with supplier
	// pricing (the Fig 7 application).
	OrderProcessing

	numWorkloads

	// Contention is the many-writer workload: EVERY party proposes a
	// distinct overwrite at every step, concurrently — the dueling-proposer
	// shape the contest plane (evidence gossip + deterministic tie-break +
	// proposer lease) must keep convergent. It sits after numWorkloads on
	// purpose: the random draw never emits it (existing seeds keep their
	// scenarios byte-identical), the fixed-seed contention matrix derives it
	// through GenerateContention.
	Contention
)

// String names the workload canonically (part of the scenario identity).
func (w Workload) String() string {
	switch w {
	case PatchStorm:
		return "patchstorm"
	case TicTacToe:
		return "tictactoe"
	case Auction:
		return "auction"
	case OrderProcessing:
		return "order"
	case Contention:
		return "contention"
	}
	return fmt.Sprintf("workload(%d)", uint8(w))
}

// FaultKind is one injectable fault class.
type FaultKind uint8

// Fault kinds. "Heavy" kinds (partition, crash, disk, evict, stale-kill)
// are serialized by the executor: if one is still active when the next
// fires, the later one is skipped and reported.
const (
	// FaultLinkFlaky sets network-wide loss/duplication/delay for Duration.
	FaultLinkFlaky FaultKind = iota
	// FaultPartition isolates the victim from everyone else for Duration.
	FaultPartition
	// FaultCrash fail-stops the victim; after Duration it restarts over its
	// WAL, restores, recovers pending runs and catches up.
	FaultCrash
	// FaultDisk arms the victim's next fsync (or write, Torn) to fail; the
	// dead plane is treated as a process crash and restarts after Duration.
	FaultDisk
	// FaultEvict partitions the victim, evicts it, and heals after
	// Duration; the executor rejoins it in the end phase (the Welcome's
	// state arrives as a transfer session).
	FaultEvict
	// FaultStaleKill drops all commits to the victim for Duration
	// (manufacturing a stale member), then arms a disk fault and triggers
	// catch-up so the transfer dies mid-flight, then crash/restart.
	FaultStaleKill
	// FaultAdversary fires one crafted-message attack from the attacker
	// party at every other party.
	FaultAdversary

	numFaultKinds

	// FaultOffline is the intermittent-WAN window: the victim is cut from
	// everyone — including the relay host — for Duration while the majority
	// keeps committing under the §7 response deadline and its traffic spills
	// to the relay mailbox. At reconnect another non-actor member (its
	// would-be serving sponsor) is crashed first, so convergence must come
	// from the relay drain plus catch-up served by the survivors. It sits
	// after numFaultKinds on purpose: the random draw never emits it
	// (existing seeds keep their scenarios byte-identical); the fixed-seed
	// offline matrix derives it through GenerateOffline.
	FaultOffline
)

// String names the fault kind canonically.
func (k FaultKind) String() string {
	switch k {
	case FaultLinkFlaky:
		return "flaky"
	case FaultPartition:
		return "partition"
	case FaultCrash:
		return "crash"
	case FaultDisk:
		return "disk"
	case FaultEvict:
		return "evict"
	case FaultStaleKill:
		return "stalekill"
	case FaultAdversary:
		return "adversary"
	case FaultOffline:
		return "offline"
	}
	return fmt.Sprintf("fault(%d)", uint8(k))
}

// AttackKind is one faults.Adversary attack.
type AttackKind uint8

// Adversary attacks (the six calibration cases of the invariant checker).
const (
	AttackReplayRun AttackKind = iota
	AttackStaleSequence
	AttackWrongGroup
	AttackForgedCommit
	AttackMismatchedState
	AttackOmittedCommit

	// NumAttacks is the number of attack kinds.
	NumAttacks
)

// String names the attack canonically.
func (a AttackKind) String() string {
	switch a {
	case AttackReplayRun:
		return "replay"
	case AttackStaleSequence:
		return "staleseq"
	case AttackWrongGroup:
		return "wronggroup"
	case AttackForgedCommit:
		return "forgedcommit"
	case AttackMismatchedState:
		return "mismatch"
	case AttackOmittedCommit:
		return "omittedcommit"
	}
	return fmt.Sprintf("attack(%d)", uint8(a))
}

// Step is one workload action. The fields are workload-specific:
// patchstorm: A = patch offset, B = patch length; tictactoe: A = cell;
// auction: A = bid amount, B = client index; order: A = quantity (customer
// steps) or price (supplier steps).
type Step struct {
	A int
	B int
}

// Fault is one scheduled injection, applied immediately before the workload
// step with index Step is driven.
type Fault struct {
	Step     int
	Kind     FaultKind
	Party    int           // victim (or attacker) party index
	Attack   AttackKind    // FaultAdversary only
	Torn     bool          // FaultDisk/FaultStaleKill: torn write, not fsync failure
	Duration time.Duration // active window before revert/restart
	DropProb float64       // FaultLinkFlaky
	DupProb  float64       // FaultLinkFlaky
	MaxDelay time.Duration // FaultLinkFlaky
}

// Scenario is one fully specified randomized end-to-end configuration. It
// is pure data: the same seed always generates the identical value, and
// Describe renders it canonically so determinism is byte-checkable.
type Scenario struct {
	Seed          uint64
	Parties       int  // group size, 2..8 (org00..orgNN)
	Majority      bool // termination: majority instead of unanimous
	Window        int  // pipeline window W (patchstorm)
	PageSize      int  // paged-identity granularity; >= ObjectSize: paging off
	ObjectSize    int  // patchstorm object size (apps: nominal)
	SnapshotEvery int  // delta chain bound
	CompactAt     int64
	SegmentSize   int
	RetainEntries int
	ChunkSize     int
	// Objects is the number of co-resident objects hosted by every party
	// (1..3; 0 means 1 for hand-written scenarios). The workload script
	// drives the first; the siblings are separate groups on the same
	// endpoints receiving a light interleaved workload, so every scenario
	// also exercises the multi-tenant dispatch path under its faults.
	Objects  int
	Workload Workload
	Steps    []Step
	Faults   []Fault
	// Relay adds a dedicated relay mailbox host outside the group (the
	// offline band): the world runs with majority termination, the §7
	// response deadline and a per-peer pending quota, so traffic toward a
	// sleeping member spills to the relay instead of pinning the sender.
	Relay bool
	// RelayMaxMsgs caps each relay mailbox (zero: the relay default).
	RelayMaxMsgs int
}

// objectCount normalizes the Objects knob (zero means the legacy single
// object).
func (s Scenario) objectCount() int {
	if s.Objects < 1 {
		return 1
	}
	return s.Objects
}

// actorCount is the number of proposing parties: patch-storm has a single
// designated writer; the apps serialize two actors in rotation; the
// contention workload makes every party a proposer. Keeping non-actors as
// the only heavy-fault victims keeps the workload drivable through faults —
// for contention there are no non-actors, so only light faults are drawn
// and the dueling-proposer window itself is the thing under test.
func (s Scenario) actorCount() int {
	switch s.Workload {
	case PatchStorm:
		return 1
	case Contention:
		return s.Parties
	}
	return 2
}

// PartyID names the i-th party.
func PartyID(i int) string { return fmt.Sprintf("org%02d", i) }

// Generate deterministically derives the scenario for a seed.
func Generate(seed uint64) Scenario {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	return generate(rng, seed, Workload(rng.IntN(int(numWorkloads))))
}

// GenerateContention derives the many-writer contention scenario for a
// seed: the same deterministic derivation as Generate (one draw consumed to
// keep the streams aligned) with the workload pinned to Contention. The
// fixed-seed contention matrix and CI replay drive scenarios through this.
func GenerateContention(seed uint64) Scenario {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	_ = rng.IntN(int(numWorkloads)) // discard: workload is pinned
	return generate(rng, seed, Contention)
}

// GenerateOffline derives the intermittent-WAN offline-member scenario for a
// seed: the same deterministic derivation as Generate, then — strictly after
// the shared draw, so every existing seed keeps its Generate scenario
// byte-identical — the band's shape is overlaid. The group runs majority
// termination over at least four parties with a relay mailbox host, and one
// FaultOffline window puts the last (always non-actor) party to sleep
// through committed rounds; drawn heavy faults are dropped — they would
// contend for the serialized heavy slot and could starve the window, and
// the band gets its member-down coverage from the sponsor crash staged at
// reconnect. The fixed-seed offline matrix and the -offline replay flag
// drive scenarios through this.
func GenerateOffline(seed uint64) Scenario {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	s := generate(rng, seed, Workload(rng.IntN(int(numWorkloads))))
	if s.Parties < 4 {
		s.Parties = 4
	}
	s.Majority = true
	s.Relay = true
	s.RelayMaxMsgs = []int{16, 64, 256}[rng.IntN(3)]
	victim := s.Parties - 1
	kept := s.Faults[:0]
	for _, f := range s.Faults {
		if f.Kind != FaultLinkFlaky && f.Kind != FaultAdversary {
			continue
		}
		kept = append(kept, f)
	}
	step := 0
	if len(s.Steps) > 1 {
		step = rng.IntN(len(s.Steps) - 1)
	}
	s.Faults = append(kept, Fault{
		Step:     step,
		Kind:     FaultOffline,
		Party:    victim,
		Duration: time.Duration(600+rng.IntN(900)) * time.Millisecond,
	})
	sortFaults(s.Faults)
	return s
}

// generate is the shared derivation body behind Generate and
// GenerateContention.
func generate(rng *rand.Rand, seed uint64, w Workload) Scenario {
	s := Scenario{Seed: seed}
	s.Workload = w
	s.Parties = 2 + rng.IntN(7) // 2..8
	// Mostly the paper's unanimous rule; majority needs a real quorum.
	s.Majority = s.Parties >= 3 && rng.IntN(4) == 0
	s.Window = 1
	if s.Workload == PatchStorm {
		s.Window = 1 + rng.IntN(4)
	}
	if s.Workload == PatchStorm {
		s.ObjectSize = []int{8 << 10, 32 << 10, 128 << 10, 256 << 10}[rng.IntN(4)]
	} else {
		s.ObjectSize = 4 << 10
	}
	s.PageSize = []int{512, 1024, 4096}[rng.IntN(3)]
	if rng.IntN(4) == 0 {
		// Paging off: one page spans the whole object (flat baseline).
		s.PageSize = s.ObjectSize
		if s.PageSize < 4096 {
			s.PageSize = 4096
		}
	}
	s.SnapshotEvery = []int{1, 4, 16, 64}[rng.IntN(4)]
	s.CompactAt = int64([]int{256 << 10, 1 << 20, 8 << 20}[rng.IntN(3)])
	s.SegmentSize = []int{64 << 10, 256 << 10, 1 << 20}[rng.IntN(3)]
	// Retention must cover every run's evidence so invariant 2 (the chain
	// covers every agreed run) stays checkable end-to-end; evidence
	// truncation has its own bar test (lab's TestDurabilityPlaneBars).
	s.RetainEntries = 1 << 14
	s.ChunkSize = []int{4 << 10, 16 << 10, 64 << 10}[rng.IntN(3)]
	_ = rng.IntN(3) // the retired Welcome inline cap: kept so every seed names the same scenario
	s.Objects = 1 + rng.IntN(3)
	s.Steps = generateSteps(rng, &s)
	s.Faults = generateFaults(rng, &s)
	return s
}

// Matrix derives n scenarios from one seed (sub-seeds drawn from the
// seed's own stream, so the whole matrix is reproducible from the one
// number).
func Matrix(seed uint64, n int) []Scenario {
	rng := rand.New(rand.NewPCG(seed, seed^0xd1342543de82ef95))
	out := make([]Scenario, n)
	for i := range out {
		out[i] = Generate(rng.Uint64())
	}
	return out
}

// generateSteps builds the workload script. App scripts are legal by
// construction (tic-tac-toe is simulated on the real game object), so an
// honest run's proposals are only ever rejected by injected faults.
func generateSteps(rng *rand.Rand, s *Scenario) []Step {
	switch s.Workload {
	case PatchStorm:
		n := 8 + rng.IntN(25) // 8..32
		steps := make([]Step, n)
		for i := range steps {
			size := 16 + rng.IntN(48)
			off := rng.IntN(s.ObjectSize - size - 4)
			steps[i] = Step{A: off, B: size}
		}
		return steps
	case TicTacToe:
		// Simulate a legal random game: random vacant square, alternating
		// marks, stop on a win or full board. The executor replays the same
		// moves through the real apps.TicTacToe rules.
		board := []byte(strings.Repeat(" ", 9))
		marks := []byte{apps.X, apps.O}
		var steps []Step
		for i := 0; i < 9 && tttWinner(board) == ""; i++ {
			var free []int
			for cell, mark := range board {
				if mark == apps.Empty {
					free = append(free, cell)
				}
			}
			if len(free) == 0 {
				break
			}
			cell := free[rng.IntN(len(free))]
			board[cell] = marks[i%2]
			steps = append(steps, Step{A: cell})
		}
		return steps
	case Auction:
		n := 6 + rng.IntN(10)
		steps := make([]Step, n)
		amount := auctionReserve
		for i := range steps {
			amount += 1 + rng.IntN(50)
			steps[i] = Step{A: amount, B: rng.IntN(8)}
		}
		return steps
	case Contention:
		// One step = every party proposes concurrently, so total run count
		// is steps x parties; keep the script short enough for -race CI.
		n := 3 + rng.IntN(4) // 3..6
		steps := make([]Step, n)
		for i := range steps {
			steps[i] = Step{A: rng.IntN(1 << 20)}
		}
		return steps
	default: // OrderProcessing
		pairs := 3 + rng.IntN(6) // 3..8 item/price pairs
		steps := make([]Step, 0, 2*pairs)
		for i := 0; i < pairs; i++ {
			steps = append(steps,
				Step{A: 1 + rng.IntN(20)}, // customer: quantity
				Step{A: 1 + rng.IntN(99)}, // supplier: unit price
			)
		}
		return steps
	}
}

// generateFaults draws the fault schedule. Heavy structural faults only
// target non-actor parties, and their windows are short relative to the
// executor's step budget so the workload always makes progress.
func generateFaults(rng *rand.Rand, s *Scenario) []Fault {
	victims := s.Parties - s.actorCount() // non-actor party count
	n := 1 + rng.IntN(4)
	if n > len(s.Steps) {
		n = len(s.Steps)
	}
	used := map[int]bool{}
	var faults []Fault
	for i := 0; i < n; i++ {
		step := rng.IntN(len(s.Steps))
		if used[step] {
			continue // keep at most one fault per step; fewer faults is fine
		}
		used[step] = true
		var kinds []FaultKind
		kinds = append(kinds, FaultLinkFlaky, FaultAdversary)
		if victims > 0 {
			kinds = append(kinds, FaultPartition, FaultCrash, FaultDisk, FaultStaleKill)
			if s.Parties >= 3 {
				kinds = append(kinds, FaultEvict)
			}
		}
		f := Fault{Step: step, Kind: kinds[rng.IntN(len(kinds))]}
		switch f.Kind {
		case FaultLinkFlaky:
			f.Duration = time.Duration(100+rng.IntN(300)) * time.Millisecond
			f.DropProb = 0.05 + 0.1*rng.Float64()
			f.DupProb = 0.05 * rng.Float64()
			f.MaxDelay = time.Duration(1+rng.IntN(5)) * time.Millisecond
		case FaultAdversary:
			f.Party = rng.IntN(s.Parties)
			f.Attack = AttackKind(rng.IntN(int(NumAttacks)))
		default:
			f.Party = s.actorCount() + rng.IntN(victims)
			f.Duration = time.Duration(100+rng.IntN(400)) * time.Millisecond
			f.Torn = rng.IntN(2) == 0
		}
		faults = append(faults, f)
	}
	sortFaults(faults)
	return faults
}

// sortFaults orders the schedule by step (stable for equal steps — though
// generation never emits those).
func sortFaults(fs []Fault) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && fs[j].Step < fs[j-1].Step; j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

// Describe renders the scenario canonically: one header line plus one line
// per step and fault. Two scenarios are identical iff their descriptions
// are byte-identical — the determinism tests assert exactly that.
func (s Scenario) Describe() string {
	var b strings.Builder
	term := "unanimous"
	if s.Majority {
		term = "majority"
	}
	fmt.Fprintf(&b, "scenario seed=%#016x workload=%s parties=%d term=%s w=%d page=%d obj=%d snap=%d compact=%d seg=%d retain=%d chunk=%d objects=%d",
		s.Seed, s.Workload, s.Parties, term, s.Window, s.PageSize, s.ObjectSize,
		s.SnapshotEvery, s.CompactAt, s.SegmentSize, s.RetainEntries, s.ChunkSize, s.objectCount())
	if s.Relay {
		// Appended only for relay scenarios so pre-relay seeds keep their
		// descriptions byte-identical.
		fmt.Fprintf(&b, " relay=1 mailbox=%d", s.RelayMaxMsgs)
	}
	b.WriteByte('\n')
	for i, st := range s.Steps {
		fmt.Fprintf(&b, "step %d a=%d b=%d\n", i, st.A, st.B)
	}
	for _, f := range s.Faults {
		fmt.Fprintf(&b, "fault step=%d kind=%s party=%d attack=%s torn=%t dur=%s drop=%.3f dup=%.3f delay=%s\n",
			f.Step, f.Kind, f.Party, f.Attack, f.Torn, f.Duration, f.DropProb, f.DupProb, f.MaxDelay)
	}
	return b.String()
}

// Validate checks the scenario's structural invariants (the generator
// always satisfies them; hand-written scenarios are checked before a run).
func (s Scenario) Validate() error {
	if s.Parties < 2 || s.Parties > 8 {
		return fmt.Errorf("parties %d outside [2,8]", s.Parties)
	}
	if s.Workload >= numWorkloads && s.Workload != Contention {
		return fmt.Errorf("unknown workload %d", s.Workload)
	}
	if s.Window < 1 {
		return errors.New("window < 1")
	}
	if s.PageSize < 1 || s.ObjectSize < 1 {
		return errors.New("page/object size < 1")
	}
	if s.Majority && s.Parties < 3 {
		return errors.New("majority termination needs >= 3 parties")
	}
	if s.Objects < 0 || s.Objects > 3 {
		return fmt.Errorf("objects %d outside [0,3]", s.Objects)
	}
	if len(s.Steps) == 0 {
		return errors.New("no workload steps")
	}
	if s.Workload == PatchStorm {
		for i, st := range s.Steps {
			if st.A < 0 || st.B < 1 || st.A+st.B+4 > s.ObjectSize {
				return fmt.Errorf("step %d patch [%d,%d) outside %d-byte object", i, st.A, st.A+st.B, s.ObjectSize)
			}
		}
	}
	actors := s.actorCount()
	for i, f := range s.Faults {
		if f.Step < 0 || f.Step >= len(s.Steps) {
			return fmt.Errorf("fault %d at step %d outside script", i, f.Step)
		}
		if f.Kind >= numFaultKinds && f.Kind != FaultOffline {
			return fmt.Errorf("fault %d has unknown kind %d", i, f.Kind)
		}
		if f.Kind == FaultOffline && (!s.Relay || !s.Majority) {
			return fmt.Errorf("fault %d offline window needs a relay host and majority termination", i)
		}
		switch f.Kind {
		case FaultLinkFlaky:
			if f.DropProb > 0.2 {
				return fmt.Errorf("fault %d drop probability %.3f too high for liveness", i, f.DropProb)
			}
		case FaultAdversary:
			if f.Party < 0 || f.Party >= s.Parties {
				return fmt.Errorf("fault %d attacker %d outside group", i, f.Party)
			}
			if f.Attack >= NumAttacks {
				return fmt.Errorf("fault %d has unknown attack %d", i, f.Attack)
			}
		default:
			if f.Party < actors || f.Party >= s.Parties {
				return fmt.Errorf("fault %d victim %d must be a non-actor party in [%d,%d)", i, f.Party, actors, s.Parties)
			}
			if f.Kind == FaultEvict && s.Parties < 3 {
				return fmt.Errorf("fault %d evicts in a 2-party group", i)
			}
		}
	}
	return nil
}

const auctionReserve = 100

// tttWinner mirrors the game's win rule for script generation.
func tttWinner(board []byte) string {
	lines := [8][3]int{
		{0, 1, 2}, {3, 4, 5}, {6, 7, 8},
		{0, 3, 6}, {1, 4, 7}, {2, 5, 8},
		{0, 4, 8}, {2, 4, 6},
	}
	for _, ln := range lines {
		a, b, c := board[ln[0]], board[ln[1]], board[ln[2]]
		if a != apps.Empty && a == b && b == c {
			return string(a)
		}
	}
	return ""
}
