//! The 1F1B pipeline schedule (§IV-B / §VII-C).
//!
//! Per stage, the classic one-forward-one-backward ordering: `pp − stage − 1`
//! warm-up forwards, a steady 1F1B phase, then the cool-down backwards. The
//! bubble fraction this induces, `(pp − 1)/(gas + pp − 1)`, is what the
//! analytical performance model charges for pipelining (and what the paper's
//! strong-scaling losses are "mainly from").

/// One scheduled action on a stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Forward microbatch `i`.
    Forward(usize),
    /// Backward microbatch `i`.
    Backward(usize),
}

/// Why a schedule could not be constructed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScheduleError {
    /// `stage` is not a valid stage index for `pp` pipeline stages.
    StageOutOfRange { stage: usize, pp: usize },
    /// The schedule needs at least one microbatch.
    NoMicrobatches,
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::StageOutOfRange { stage, pp } => {
                write!(f, "stage {stage} out of range for {pp} pipeline stages")
            }
            ScheduleError::NoMicrobatches => write!(f, "schedule requires gas >= 1"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// The 1F1B action list for `stage` of `pp` stages with `gas` microbatches,
/// with invalid configurations reported as typed errors.
pub fn one_f_one_b(stage: usize, pp: usize, gas: usize) -> Result<Vec<Action>, ScheduleError> {
    if stage >= pp {
        return Err(ScheduleError::StageOutOfRange { stage, pp });
    }
    if gas == 0 {
        return Err(ScheduleError::NoMicrobatches);
    }
    let warmup = (pp - stage - 1).min(gas);
    let mut actions = Vec::with_capacity(2 * gas);
    let mut next_fwd = 0;
    let mut next_bwd = 0;
    for _ in 0..warmup {
        actions.push(Action::Forward(next_fwd));
        next_fwd += 1;
    }
    // Steady state: 1F1B.
    while next_fwd < gas {
        actions.push(Action::Forward(next_fwd));
        next_fwd += 1;
        actions.push(Action::Backward(next_bwd));
        next_bwd += 1;
    }
    // Cooldown.
    while next_bwd < gas {
        actions.push(Action::Backward(next_bwd));
        next_bwd += 1;
    }
    Ok(actions)
}

/// Analytical pipeline bubble fraction for 1F1B.
pub fn bubble_fraction(pp: usize, gas: usize) -> f64 {
    (pp as f64 - 1.0) / (gas as f64 + pp as f64 - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_microbatch_forward_then_backward_once() {
        for stage in 0..4 {
            let acts = one_f_one_b(stage, 4, 6).unwrap();
            let mut fwd_seen = [false; 6];
            let mut bwd_seen = [false; 6];
            for a in &acts {
                match *a {
                    Action::Forward(i) => {
                        assert!(!fwd_seen[i]);
                        fwd_seen[i] = true;
                    }
                    Action::Backward(i) => {
                        assert!(fwd_seen[i], "backward before forward");
                        assert!(!bwd_seen[i]);
                        bwd_seen[i] = true;
                    }
                }
            }
            assert!(fwd_seen.iter().all(|&x| x));
            assert!(bwd_seen.iter().all(|&x| x));
        }
    }

    #[test]
    fn in_flight_microbatches_bounded_by_warmup() {
        // 1F1B's whole point: activation memory holds at most
        // pp − stage in-flight microbatches, not gas.
        let (pp, gas) = (4, 16);
        for stage in 0..pp {
            let acts = one_f_one_b(stage, pp, gas).unwrap();
            let mut in_flight = 0usize;
            let mut max_in_flight = 0;
            for a in &acts {
                match a {
                    Action::Forward(_) => in_flight += 1,
                    Action::Backward(_) => in_flight -= 1,
                }
                max_in_flight = max_in_flight.max(in_flight);
            }
            assert!(
                max_in_flight <= pp - stage,
                "stage {stage}: {max_in_flight} in flight"
            );
        }
    }

    #[test]
    fn last_stage_strictly_alternates() {
        let acts = one_f_one_b(3, 4, 5).unwrap();
        assert_eq!(acts[0], Action::Forward(0));
        assert_eq!(acts[1], Action::Backward(0));
        assert_eq!(acts[2], Action::Forward(1));
    }

    #[test]
    fn small_gas_degenerates_gracefully() {
        let acts = one_f_one_b(0, 4, 1).unwrap();
        assert_eq!(acts, vec![Action::Forward(0), Action::Backward(0)]);
    }

    #[test]
    fn invalid_configurations_are_typed_errors() {
        assert_eq!(
            one_f_one_b(4, 4, 2),
            Err(ScheduleError::StageOutOfRange { stage: 4, pp: 4 })
        );
        assert_eq!(one_f_one_b(0, 4, 0), Err(ScheduleError::NoMicrobatches));
        assert!(!format!("{}", ScheduleError::NoMicrobatches).is_empty());
    }

    #[test]
    fn bubble_fraction_limits() {
        assert!((bubble_fraction(1, 8) - 0.0).abs() < 1e-12);
        assert!((bubble_fraction(4, 1) - 0.75).abs() < 1e-12);
        // Large GAS amortizes the bubble.
        assert!(bubble_fraction(20, 140) < 0.12);
    }
}
