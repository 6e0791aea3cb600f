//! `WindowFsm` enumerated, not sampled: the whole phase × event table
//! is pinned cell by cell, and every state reachable within six events
//! of either entry point is shown to obey it and to be able to finish.

use ow_common::engine::{WindowEvent as E, WindowFsm, WindowPhase as P};
use ow_common::time::Instant;

const PHASES: [P; 9] = [
    P::Open,
    P::Terminated,
    P::CrWait,
    P::Collecting,
    P::Collected,
    P::Retransmitting,
    P::Escalated,
    P::Merged,
    P::Released,
];

const EVENTS: [E; 10] = [
    E::SignalFired,
    E::CrScheduled {
        due: Instant::from_millis(101),
    },
    E::CollectStarted,
    E::BatchGenerated,
    E::StreamComplete,
    E::RetransmitRound,
    E::EscalateOsRead,
    E::Acked,
    E::Evicted,
    E::SwitchDeparted,
];

/// Column of `SwitchDeparted` in [`EVENTS`] / [`TABLE`].
const DEPARTED: usize = 9;

/// The [`EVENTS`] that walk a window through every phase in
/// [`PHASES`] order.
const LIFECYCLE: [usize; 8] = [0, 1, 2, 3, 5, 6, 4, 7];

const NO: Option<P> = None;
const MERGED: Option<P> = Some(P::Merged);
const RETX: Option<P> = Some(P::Retransmitting);
const ESCAL: Option<P> = Some(P::Escalated);
const FREED: Option<P> = Some(P::Released);

/// The phase each event leads to from each phase (`NO`: rejected). Rows
/// follow [`PHASES`], columns [`EVENTS`].
#[rustfmt::skip]
const TABLE: [[Option<P>; 10]; 9] = [
    //               signal               scheduled        started              generated           complete retx  escalate acked  evicted departed
    /* open        */ [Some(P::Terminated), NO,              NO,                  NO,                 NO,      NO,   NO,      NO,    NO,     FREED],
    /* terminated  */ [NO,                  Some(P::CrWait), NO,                  NO,                 NO,      NO,   NO,      NO,    NO,     FREED],
    /* cr_wait     */ [NO,                  NO,              Some(P::Collecting), NO,                 NO,      NO,   NO,      NO,    NO,     FREED],
    /* collecting  */ [NO,                  NO,              NO,                  Some(P::Collected), NO,      NO,   NO,      NO,    NO,     FREED],
    /* collected   */ [NO,                  NO,              NO,                  NO,                 MERGED,  RETX, ESCAL,   NO,    FREED,  FREED],
    /* retransmit. */ [NO,                  NO,              NO,                  NO,                 MERGED,  RETX, ESCAL,   NO,    FREED,  FREED],
    /* escalated   */ [NO,                  NO,              NO,                  NO,                 MERGED,  NO,   NO,      NO,    FREED,  FREED],
    /* merged      */ [NO,                  NO,              NO,                  NO,                 NO,      NO,   NO,      FREED, NO,     FREED],
    /* released    */ [NO; 10],
];

/// Apply every event to `before` and hold each outcome to [`TABLE`]:
/// an accepted cell lands exactly where the table says, a rejected one
/// leaves the FSM `==` its prior value. Returns the accepted successors.
/// Without `departures`, `SwitchDeparted` is not applied.
fn successors(before: WindowFsm, departures: bool) -> Vec<WindowFsm> {
    let row = PHASES.iter().position(|p| *p == before.phase()).unwrap();
    let mut accepted = Vec::new();
    for (column, (event, want)) in EVENTS.iter().zip(TABLE[row]).enumerate() {
        if column == DEPARTED && !departures {
            continue;
        }
        let mut fsm = before;
        let cell = format!("{} × {}", before.phase(), event.name());
        match (fsm.apply(*event), want) {
            (Ok(next), Some(want)) => {
                assert_eq!((next, fsm.phase()), (want, want), "{cell}");
                assert!(
                    fsm.retransmit_rounds() >= before.retransmit_rounds(),
                    "{cell}: retransmit_rounds went backwards"
                );
                accepted.push(fsm);
            }
            (Err(e), None) => {
                assert_eq!(fsm, before, "{cell}: a rejected event changed the FSM");
                assert_eq!((e.phase, e.event), (before.phase(), event.name()), "{cell}");
            }
            (got, want) => panic!("{cell}: table says {want:?}, FSM says {got:?}"),
        }
    }
    accepted
}

/// Every distinct state within `depth` events of `start`. The FSM is
/// deterministic and a rejected event leaves it unchanged, so walking
/// distinct states breadth-first visits what every event sequence of
/// that length would.
fn reachable(start: WindowFsm, depth: usize, departures: bool) -> Vec<WindowFsm> {
    let mut seen = vec![start];
    let mut frontier = vec![start];
    for _ in 0..depth {
        let mut next = Vec::new();
        for fsm in frontier.iter().flat_map(|f| successors(*f, departures)) {
            if !seen.contains(&fsm) {
                seen.push(fsm);
                next.push(fsm);
            }
        }
        frontier = next;
    }
    seen
}

#[test]
fn all_ninety_cells_match_the_table() {
    // One FSM per phase, reached along the lifecycle's own path.
    let mut fsm = WindowFsm::open(5);
    let mut by_phase = vec![fsm];
    for event in LIFECYCLE {
        fsm.apply(EVENTS[event]).unwrap();
        by_phase.push(fsm);
    }
    let reached: Vec<P> = by_phase.iter().map(|f| f.phase()).collect();
    assert_eq!(reached, PHASES, "the script visits every phase once");
    let accepted: usize = by_phase
        .into_iter()
        .map(|f| successors(f, true).len())
        .sum();
    assert_eq!(accepted, 23, "accepted cells out of 9 × 10");
}

#[test]
fn released_rejects_everything_and_departure_is_always_legal() {
    for (phase, row) in PHASES.iter().zip(TABLE) {
        if phase.is_terminal() {
            assert_eq!(row, [NO; 10]);
        } else {
            assert_eq!(row[DEPARTED], FREED, "{phase}");
        }
    }
}

#[test]
fn no_state_within_six_events_is_wedged() {
    for start in [WindowFsm::open(1), WindowFsm::announced(1)] {
        let states = reachable(start, 6, true);
        if start.phase() == P::Open {
            for phase in PHASES {
                assert!(states.iter().any(|f| f.phase() == phase), "{phase}");
            }
        }
        // Departure releases from anywhere by the table; a live switch's
        // window must be able to finish without it too.
        for fsm in states {
            let finishes = reachable(fsm, PHASES.len(), false)
                .iter()
                .any(|f| f.phase().is_terminal());
            assert!(finishes, "wedged: {fsm:?}");
        }
    }
}
