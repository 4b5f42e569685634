//! The process-wide set of parked rank threads and the stash each keeps.
//!
//! A rank is an OS thread. A thread spawned per
//! [`DistributedTrainer::train`](crate::DistributedTrainer::train) call
//! faults in a fresh stack and malloc arena, and its exit hands both back to
//! the kernel. So a rank thread outlives its call: when its job ends it parks
//! here, idle, and a later call's rank takes it over. A call takes one idle
//! thread per rank and spawns a thread only when none is idle, so two
//! concurrent calls never share a thread, and the set holds as many threads
//! as the most ranks ever running at once.
//!
//! **The stash.** Each thread also keeps a [`Stash`]: the buffers its
//! rank's steps need (the message pool, the stage's workspace, saves and
//! row buffers, the gradient slots and buckets), handed to every job it
//! runs and handed back when the job ends, as the thread keeps its stack
//! and heap. A call's rank `r` takes, when it can, the idle thread that
//! last ran a rank `r`, so a repeated call finds each stash sized for its
//! stage. The contract:
//! - a stash holds buffers only: every one is rewritten before it is read
//!   (NaN-filled under `debug_assertions`), so no bit depends on which
//!   thread, or which earlier call, a rank's buffers come from;
//! - it is bounded: the message pool keeps at most `Pool::CAP` payloads, and
//!   the rest is one rank's working set at the largest shape it has run;
//! - a job that panics drops its stash, and its thread runs the next job
//!   with an empty one.

use crate::rank::Stash;
use parking_lot::Mutex;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::thread;

/// One rank's work for one call, over its thread's stash.
pub(crate) type Job = Box<dyn FnOnce(&mut Stash) + Send>;

/// How a job ended: `Err` holds its panic payload.
type Outcome = thread::Result<()>;

/// A parked thread's inbox: a job, its slot, and where to report how it
/// ended.
type Inbox = Sender<(Job, usize, Sender<Outcome>)>;

/// The threads without a job: the slot of the job each ran last, and its
/// inbox.
static IDLE: Mutex<Vec<(usize, Inbox)>> = Mutex::new(Vec::new());

/// Run each job on a thread of its own and wait for all of them: job `i`
/// (its slot) on the idle thread that last ran a job `i` if there is one,
/// else on the last-parked idle thread, else on a new one. If a job
/// panicked, re-raise the first panic once every job has returned, as
/// `std::thread::scope` does.
pub(crate) fn run_all(jobs: Vec<Job>) {
    let n = jobs.len();
    let (report, outcomes) = channel();
    for (slot, job) in jobs.into_iter().enumerate() {
        let parked = {
            let mut idle = IDLE.lock();
            let pick = idle.iter().position(|&(last, _)| last == slot).or(idle.len().checked_sub(1));
            pick.map(|i| idle.remove(i).1)
        };
        let inbox = parked.unwrap_or_else(spawn);
        inbox.send((job, slot, report.clone())).expect("a parked thread keeps its inbox open");
    }
    let mut panicked = None;
    for outcome in outcomes.iter().take(n) {
        if let Err(payload) = outcome {
            panicked.get_or_insert(payload);
        }
    }
    if let Some(payload) = panicked {
        panic::resume_unwind(payload);
    }
}

/// Start a thread and return its inbox. The thread runs each job it
/// receives over its stash, catching a panic so that the thread survives it
/// (and dropping the stash the job left), and parks itself before it
/// reports: once a call has every outcome, all its threads are idle again.
fn spawn() -> Inbox {
    let (inbox, jobs) = channel::<(Job, usize, Sender<Outcome>)>();
    let me = inbox.clone();
    thread::Builder::new()
        .name("swipe-rank".into())
        .spawn(move || {
            let mut stash = Stash::default();
            for (job, slot, report) in jobs {
                let outcome = panic::catch_unwind(AssertUnwindSafe(|| job(&mut stash)));
                if outcome.is_err() {
                    stash = Stash::default();
                }
                IDLE.lock().push((slot, me.clone()));
                // The caller waits for every report, so this send succeeds.
                let _ = report.send(outcome);
            }
        })
        .expect("spawn a rank thread");
    inbox
}
