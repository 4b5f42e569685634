//! The process-wide set of parked rank threads.
//!
//! A rank is an OS thread. A thread spawned per
//! [`DistributedTrainer::train`](crate::DistributedTrainer::train) call
//! faults in a fresh stack and malloc arena, and its exit hands both back to
//! the kernel. So a rank thread outlives its call: when its job ends it parks
//! here, idle, and a later call's rank takes it over. A call takes one idle
//! thread per rank and spawns a thread only when none is idle, so two
//! concurrent calls never share a thread, and the set holds as many threads
//! as the most ranks ever running at once.

use parking_lot::Mutex;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::thread;

/// One rank's work for one call.
pub(crate) type Job = Box<dyn FnOnce() + Send>;

/// How a job ended: `Err` holds its panic payload.
type Outcome = thread::Result<()>;

/// A parked thread's inbox: a job, and where to report how it ended.
type Inbox = Sender<(Job, Sender<Outcome>)>;

/// The inboxes of the threads without a job.
static IDLE: Mutex<Vec<Inbox>> = Mutex::new(Vec::new());

/// Run each job on a thread of its own and wait for all of them. If a job
/// panicked, re-raise the first panic once every job has returned, as
/// `std::thread::scope` does.
pub(crate) fn run_all(jobs: Vec<Job>) {
    let n = jobs.len();
    let (report, outcomes) = channel();
    for job in jobs {
        let inbox = IDLE.lock().pop().unwrap_or_else(spawn);
        inbox.send((job, report.clone())).expect("a parked thread keeps its inbox open");
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
/// receives, catching a panic so that the thread survives it, and parks
/// itself before it reports: once a call has every outcome, all its threads
/// are idle again.
fn spawn() -> Inbox {
    let (inbox, jobs) = channel::<(Job, Sender<Outcome>)>();
    let me = inbox.clone();
    thread::Builder::new()
        .name("swipe-rank".into())
        .spawn(move || {
            for (job, report) in jobs {
                let outcome = panic::catch_unwind(AssertUnwindSafe(job));
                IDLE.lock().push(me.clone());
                // The caller waits for every report, so this send succeeds.
                let _ = report.send(outcome);
            }
        })
        .expect("spawn a rank thread");
    inbox
}
