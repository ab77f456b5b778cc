//! Seeded workload inputs. Each is a pure function of the workload seed
//! (and, for the serve stream, of the world that seed generates); the
//! program under test receives only what these functions produce.

use mm_rng::{stream_rng, sub_seed, Rng};
use mmcarriers::city::City;
use mmcarriers::world::World;
use mmexperiments::query::QueryRequest;
use mmexperiments::{Artifact, Ctx, FleetConfig};
use mmradio::band::Rat;

/// Instances a timed run spreads its work over, so one world's quirks do
/// not set a run's figures: instance 0 is the workload seed itself, the
/// others derive from it.
pub fn instance_seed(seed: u64, i: usize) -> u64 {
    if i == 0 {
        seed
    } else {
        sub_seed(seed, 0x1_0000 + i as u64)
    }
}

/// The `paper` context: mid-size world, 3 runs of 300 s drives per
/// (carrier, city).
pub fn paper_ctx(seed: u64) -> Ctx {
    Ctx::builder()
        .seed(seed)
        .scale(0.1)
        .runs(3)
        .duration_ms(300_000)
        .build()
}

/// The 25 artifacts `mmx all ablations` renders, in its order.
pub fn paper_artifacts() -> Vec<Artifact> {
    Artifact::PAPER
        .into_iter()
        .chain(Artifact::ABLATIONS)
        .collect()
}

/// UEs per `fleet_metro` run.
pub const FLEET_UES: usize = 250;
/// Fleet configurations one `fleet_metro` cycle runs.
pub const FLEET_CONFIGS: usize = 8;

/// The `fleet_metro` configurations: carrier A's LTE network in C1 at
/// world scale 0.2, driven by [`FLEET_UES`] UEs for 10 s, in
/// [`FLEET_CONFIGS`] seeded worlds.
pub fn fleet_configs(seed: u64) -> Vec<FleetConfig> {
    (0..FLEET_CONFIGS)
        .map(|i| fleet_config(instance_seed(seed, i)))
        .collect()
}

/// One `fleet_metro` configuration.
pub fn fleet_config(seed: u64) -> FleetConfig {
    FleetConfig {
        seed,
        ues: FLEET_UES,
        shards: 16,
        duration_ms: 10_000,
        epoch_ms: 1_000,
        carrier: "A".to_string(),
        city: City::C1,
        scale: 0.2,
    }
}

/// World scale of the `serve_mixed` campaign.
pub const SERVE_SCALE: f64 = 0.25;

/// The `serve_mixed` campaign context (its store address).
pub fn serve_ctx(seed: u64) -> Ctx {
    Ctx::builder().seed(seed).scale(SERVE_SCALE).build()
}

/// One (carrier × RAT × city) slice an analyst session opens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Slice {
    pub carrier: &'static str,
    pub rat: Rat,
    pub city: City,
}

/// Every slice the world has cells in, in a fixed order.
pub fn slices(world: &World) -> Vec<Slice> {
    let mut v: Vec<Slice> = world
        .cells()
        .iter()
        .map(|c| Slice {
            carrier: c.carrier,
            rat: c.rat,
            city: c.city,
        })
        .collect();
    v.sort();
    v.dedup();
    v
}

/// Targets one slice can be asked about: its diversity table and every
/// store-served D2 figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    Diversity,
    Figure(Artifact),
}

fn targets() -> Vec<Target> {
    std::iter::once(Target::Diversity)
        .chain(
            Artifact::PAPER
                .into_iter()
                .filter(|a| a.needs_d2_agg())
                .map(Target::Figure),
        )
        .collect()
}

/// Distinct questions per session after the first: each renders from the
/// slice's memoized aggregate.
pub const MEMO_ASKS: usize = 4;
/// Re-asks per session of answers given earlier in it: answer-cache hits.
pub const HIT_ASKS: usize = 16;
/// Sessions every `serve_mixed` run completes, however fast the clock:
/// enough for 10 samples beyond the render p90 and the hit p99.
pub const MIN_SESSIONS: usize = 64;

/// How the stream expects a request to be answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// First question over a new slice: cold pushdown scan and render.
    Cold,
    /// Another question over the same slice: memo render.
    Memo,
    /// A repeated question: answer-cache hit.
    Hit,
}

/// One analyst session: a slice's questions in order.
#[derive(Debug, Clone)]
pub struct Session {
    pub asks: Vec<(QueryRequest, Expect)>,
}

fn request(t: Target, s: Slice, pass: usize) -> QueryRequest {
    let b = match t {
        Target::Diversity => QueryRequest::diversity(s.carrier, s.rat).city(s.city),
        Target::Figure(a) => QueryRequest::artifact(a)
            .carrier(s.carrier)
            .rat(s.rat)
            .city(s.city),
    };
    // Later passes over the slice list ask under a round ceiling: the
    // same rows, but a distinct question, so it is cold again.
    let b = if pass == 0 {
        b
    } else {
        b.rounds_max(pass as u32)
    };
    b.build()
        .expect("generated queries are valid by construction")
}

/// Session `k` of the stream for `seed`. Pass `k / slices.len()` visits
/// every slice once, in a seeded order.
pub fn session(seed: u64, slices: &[Slice], k: usize) -> Session {
    let n = slices.len().max(1);
    let (pass, i) = (k / n, k % n);
    let mut order: Vec<usize> = (0..slices.len()).collect();
    shuffle(&mut order, sub_seed(seed, 0x5E55_0000 + pass as u64));
    let slice = slices[order[i]];

    let mut rng = stream_rng(seed, sub_seed(0x5E55, k as u64));
    let mut ts = targets();
    shuffle_with(&mut ts, &mut rng);
    let asked: Vec<QueryRequest> = ts[..=MEMO_ASKS]
        .iter()
        .map(|&t| request(t, slice, pass))
        .collect();
    let mut asks: Vec<(QueryRequest, Expect)> = asked
        .iter()
        .enumerate()
        .map(|(j, r)| (r.clone(), if j == 0 { Expect::Cold } else { Expect::Memo }))
        .collect();
    for _ in 0..HIT_ASKS {
        // Skewed toward the first questions: popular answers repeat.
        let u: f64 = rng.gen();
        let j = ((u * u) * asked.len() as f64) as usize;
        asks.push((asked[j.min(asked.len() - 1)].clone(), Expect::Hit));
    }
    Session { asks }
}

fn shuffle(v: &mut [usize], seed: u64) {
    shuffle_with(v, &mut stream_rng(seed, 1));
}

fn shuffle_with<T, R: Rng>(v: &mut [T], rng: &mut R) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{beyond, MIN_BEYOND};

    fn stream_text(seed: u64, slices: &[Slice], sessions: usize) -> String {
        (0..sessions)
            .flat_map(|k| session(seed, slices, k).asks)
            .map(|(r, e)| format!("{e:?} {}\n", r.to_wire()))
            .collect()
    }

    fn world_slices() -> Vec<Slice> {
        slices(&World::generate(2018, 0.02))
    }

    #[test]
    fn same_seed_gives_a_byte_identical_stream() {
        let s = world_slices();
        let n = 3 * s.len();
        assert_eq!(stream_text(7, &s, n), stream_text(7, &s, n));
        assert_ne!(stream_text(7, &s, n), stream_text(8, &s, n));
    }

    #[test]
    fn fleet_configs_are_a_pure_function_of_the_seed() {
        assert_eq!(fleet_configs(5), fleet_configs(5));
        assert_ne!(fleet_configs(5), fleet_configs(6));
        assert_eq!(fleet_configs(5)[0].seed, 5, "instance 0 is the seed itself");
    }

    #[test]
    fn default_stream_supports_the_reported_tail_percentiles() {
        let s = world_slices();
        let (mut renders, mut hits) = (0, 0);
        for k in 0..MIN_SESSIONS {
            for (_, e) in session(crate::DEFAULT_SEED, &s, k).asks {
                match e {
                    Expect::Hit => hits += 1,
                    Expect::Cold | Expect::Memo => renders += 1,
                }
            }
        }
        assert!(beyond(90.0, renders) >= MIN_BEYOND, "{renders} renders");
        assert!(beyond(99.0, hits) >= MIN_BEYOND, "{hits} hits");
    }

    #[test]
    fn first_questions_over_a_pass_are_distinct() {
        let s = world_slices();
        let mut firsts: Vec<String> = (0..2 * s.len())
            .map(|k| session(3, &s, k).asks[0].0.normalized())
            .collect();
        let n = firsts.len();
        firsts.sort();
        firsts.dedup();
        assert_eq!(firsts.len(), n, "every session opens a new slice");
    }
}
