//! Scenario builders: the paper's scripted topologies and randomized
//! enterprise deployments.
//!
//! The scripted scenarios place clients at distances that hit target HT20
//! SNRs (solving the path-loss model backwards), so "good" and "poor"
//! clients land in the same regimes the paper's testbed links occupy:
//! good ≈ 28–32 dB, poor ≈ 0–2 dB (where §3's measurements show CB
//! collapsing).

use acorn_phy::noise::channel_noise_floor_dbm;
use acorn_phy::ChannelWidth;
use acorn_topology::pathloss::LogDistance;
use acorn_topology::wlan::RadioParams;
use acorn_topology::{Point, Wlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Solves the (median) path-loss model for the distance at which a link
/// reaches `snr20_db` on a 20 MHz channel.
pub fn distance_for_snr20(radio: &RadioParams, pl: &LogDistance, snr20_db: f64) -> f64 {
    let floor = channel_noise_floor_dbm(ChannelWidth::Ht20, radio.noise_figure_db);
    let target_pl = radio.tx_power_dbm + radio.antenna_gains_dbi - floor - snr20_db;
    10f64.powf((target_pl - pl.pl0_db) / (10.0 * pl.exponent))
}

/// Target SNR of a "good" client (CB clearly helps).
pub const GOOD_SNR_DB: f64 = 30.0;
/// Target SNR of a "poor" client: the bonded channel is in deep trouble
/// (PER ≈ 0.9) while 20 MHz still runs cleanly at the bottom MCS —
/// yielding the ~4× ACORN-vs-aggressive-CB gap of Fig. 10. Note the
/// analytic AWGN curves are steeper than testbed curves, so the paper's
/// "poor client" regime compresses into a narrow SNR band here.
pub const POOR_SNR_DB: f64 = 1.65;

fn shadowless_wlan(aps: Vec<Point>, clients: Vec<Point>, seed: u64) -> Wlan {
    let mut w = Wlan::new(aps, clients, seed);
    w.pathloss.shadowing_sigma_db = 0.0;
    w
}

/// Places `n` clients on a circle of radius `r` around `center`.
fn ring(center: Point, r: f64, n: usize, phase: f64) -> Vec<Point> {
    (0..n)
        .map(|i| {
            let theta = phase + 2.0 * std::f64::consts::PI * i as f64 / n.max(1) as f64;
            Point::new(center.x + r * theta.cos(), center.y + r * theta.sin())
        })
        .collect()
}

/// Fig. 10 Topology 1: two interference-free APs; AP 0 serves two poor
/// clients, AP 1 two good clients. Client indices 0–1 are AP 0's poor
/// pair, 2–3 are AP 1's good pair.
pub fn topology1() -> Wlan {
    let radio = RadioParams::default();
    let pl = LogDistance::indoor_5ghz(0);
    let d_poor = distance_for_snr20(&radio, &pl, POOR_SNR_DB);
    let d_good = distance_for_snr20(&radio, &pl, GOOD_SNR_DB);
    // APs far apart: interference-free (well beyond carrier sense).
    let ap0 = Point::new(0.0, 0.0);
    let ap1 = Point::new(2000.0, 0.0);
    let mut clients = ring(ap0, d_poor, 2, 0.0);
    clients.extend(ring(ap1, d_good, 2, 1.0));
    shadowless_wlan(vec![ap0, ap1], clients, 1)
}

/// Fig. 10 Topology 2: five interference-free APs. APs 0 and 2 sit close
/// enough to share clients (the grouping experiment): three good clients
/// and one mid-quality client lie between them. AP 1 has good clients;
/// APs 3 and 4 each carry a poor client alongside a good one — the cells
/// where aggressive CB collapses.
///
/// Client layout: 0–3 between APs 0/2 (3 good + 1 mid), 4–5 good at AP 1,
/// 6–7 at AP 3 (good + poor), 8–9 at AP 4 (good + poor).
pub fn topology2() -> Wlan {
    let radio = RadioParams::default();
    let pl = LogDistance::indoor_5ghz(0);
    // Two grades of "poor": AP 3's client is deeper into the CB collapse
    // (the paper's 6× cell), AP 4's is near the crossover (the 1.5× cell).
    let d_poor_deep = distance_for_snr20(&radio, &pl, POOR_SNR_DB - 0.08);
    let d_poor_edge = distance_for_snr20(&radio, &pl, POOR_SNR_DB + 0.17);
    let d_good = distance_for_snr20(&radio, &pl, GOOD_SNR_DB);
    let d_mid = distance_for_snr20(&radio, &pl, 14.0);

    // APs 0 and 2 are 40 m apart (mutually in carrier-sense range);
    // the rest are isolated islands.
    let ap0 = Point::new(0.0, 0.0);
    let ap2 = Point::new(40.0, 0.0);
    let ap1 = Point::new(2000.0, 0.0);
    let ap3 = Point::new(4000.0, 0.0);
    let ap4 = Point::new(6000.0, 0.0);

    let mut clients = Vec::new();
    // Shared pool between APs 0 and 2: good clients near the midline.
    clients.push(Point::new(d_good * 0.7, d_good * 0.5)); // good, reachable by both
    clients.push(Point::new(40.0 - d_good * 0.7, -d_good * 0.5)); // good
    clients.push(Point::new(20.0, d_good * 0.8)); // good
    clients.push(Point::new(20.0, -d_mid)); // mid-quality
                                            // AP 1: two good clients.
    clients.extend(ring(ap1, d_good, 2, 0.3));
    // AP 3: one good, one deeply poor client.
    clients.push(Point::new(4000.0 + d_good, 0.0));
    clients.push(Point::new(4000.0 - d_poor_deep, 0.0));
    // AP 4: one good, one crossover-edge poor client.
    clients.push(Point::new(6000.0 + d_good, 0.0));
    clients.push(Point::new(6000.0 - d_poor_edge, 0.0));

    shadowless_wlan(vec![ap0, ap1, ap2, ap3, ap4], clients, 2)
}

/// Fig. 11: three mutually contending APs (all within carrier sense).
/// AP 0 serves one good client; APs 1 and 2 each serve one poor client.
/// Meant to be run with a 4-channel plan, where only one AP can bond
/// cleanly.
pub fn fig11() -> Wlan {
    let radio = RadioParams::default();
    let pl = LogDistance::indoor_5ghz(0);
    let d_poor = distance_for_snr20(&radio, &pl, POOR_SNR_DB);
    let d_good = distance_for_snr20(&radio, &pl, GOOD_SNR_DB);
    let ap0 = Point::new(0.0, 0.0);
    let ap1 = Point::new(50.0, 0.0);
    let ap2 = Point::new(25.0, 43.3);
    let clients = vec![
        Point::new(-d_good, 0.0),
        Point::new(50.0 + d_poor, 0.0),
        Point::new(25.0, 43.3 + d_poor),
    ];
    shadowless_wlan(vec![ap0, ap1, ap2], clients, 3)
}

/// A randomized enterprise floor: `nx × ny` APs on a grid with `spacing`
/// metres, `n_clients` clients placed uniformly over the covered
/// rectangle (plus a margin), with lognormal shadowing enabled.
pub fn enterprise_grid(nx: usize, ny: usize, spacing: f64, n_clients: usize, seed: u64) -> Wlan {
    assert!(nx * ny >= 1, "need at least one AP");
    let mut rng = StdRng::seed_from_u64(seed);
    let aps: Vec<Point> = (0..ny)
        .flat_map(|j| (0..nx).map(move |i| Point::new(i as f64 * spacing, j as f64 * spacing)))
        .collect();
    let margin = spacing * 0.5;
    let w = (nx.saturating_sub(1)) as f64 * spacing;
    let h = (ny.saturating_sub(1)) as f64 * spacing;
    let clients: Vec<Point> = (0..n_clients)
        .map(|_| {
            Point::new(
                rng.gen_range(-margin..=w + margin),
                rng.gen_range(-margin..=h + margin),
            )
        })
        .collect();
    Wlan::new(aps, clients, seed)
}

/// Centre-to-centre distance between [`city_grid`] district origins (m).
pub const CITY_DISTRICT_PITCH_M: f64 = 400.0;
/// AP spacing inside a [`city_grid`] district (m).
pub const CITY_AP_SPACING_M: f64 = 50.0;
/// [`city_grid`] clients stay within this margin of their district's AP
/// bounding box (m).
pub const CITY_CLIENT_MARGIN_M: f64 = 25.0;

/// A city-scale deployment: `districts_per_side²` districts on a square
/// grid with [`CITY_DISTRICT_PITCH_M`] pitch, each district an
/// `aps_per_district_side²` AP grid at [`CITY_AP_SPACING_M`] spacing.
/// Clients are assigned to districts round-robin (`c % n_districts`) and
/// placed uniformly inside their district's AP bounding box plus
/// [`CITY_CLIENT_MARGIN_M`], with lognormal shadowing enabled.
///
/// With `aps_per_district_side ≤ 4` the district extent is at most 150 m,
/// so the nearest foreign-district AP sits ≥ 225 m from any client and
/// ≥ 250 m from any AP — both far beyond the default 80 m carrier-sense
/// radius. The interference graph therefore decomposes into exactly
/// `districts_per_side²` connected components regardless of association,
/// which is what makes this the reference workload for the sharded
/// allocation path.
///
/// AP ids are district-major (row-major over districts, then row-major
/// inside the district), so each district's APs are contiguous.
pub fn city_grid(
    districts_per_side: usize,
    aps_per_district_side: usize,
    n_clients: usize,
    seed: u64,
) -> Wlan {
    districts(
        districts_per_side,
        aps_per_district_side,
        CITY_DISTRICT_PITCH_M,
        n_clients,
        seed,
    )
}

/// A zone-partitioned city: like [`city_grid`] but with a configurable
/// district pitch, so scenarios can place districts close enough that
/// their edge APs fall inside a *border margin* of a neighbouring
/// district while the interference graph still decomposes into exactly
/// `districts_per_side²` components. This is the reference workload for
/// the distributed control plane: each district is one zone controller,
/// and the border cells are the ones a zone forces to 20 MHz when it
/// loses its peers.
///
/// The caller picks `pitch_m`; the builder asserts the resulting
/// inter-district AP gap (`pitch_m` minus the district extent) stays
/// above 180 m — comfortably beyond the default 80 m carrier-sense
/// radius plus shadowing headroom — so the components are guaranteed
/// regardless of association, exactly as in [`city_grid`].
pub fn zoned_city(
    districts_per_side: usize,
    aps_per_district_side: usize,
    pitch_m: f64,
    n_clients: usize,
    seed: u64,
) -> Wlan {
    let mut w = districts(
        districts_per_side,
        aps_per_district_side,
        pitch_m,
        n_clients,
        seed,
    );
    let extent = (aps_per_district_side - 1) as f64 * CITY_AP_SPACING_M;
    assert!(
        pitch_m - extent >= 180.0,
        "pitch {pitch_m} m leaves a {:.0} m gap: zones would merge",
        pitch_m - extent
    );
    // Deterministic geometry: zone membership and border sets should not
    // depend on a shadowing draw.
    w.pathloss.shadowing_sigma_db = 0.0;
    w
}

/// The district layout [`city_grid`] and [`zoned_city`] share: districts
/// `pitch_m` apart, district-major AP ids, clients round-robin over the
/// districts, lognormal shadowing on.
fn districts(
    districts_per_side: usize,
    aps_per_district_side: usize,
    pitch_m: f64,
    n_clients: usize,
    seed: u64,
) -> Wlan {
    assert!(districts_per_side >= 1, "need at least one district");
    assert!(
        (1..=4).contains(&aps_per_district_side),
        "district extent must stay below the inter-district gap"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let k = aps_per_district_side;
    let extent = (k - 1) as f64 * CITY_AP_SPACING_M;
    let mut aps = Vec::with_capacity(districts_per_side * districts_per_side * k * k);
    let mut origins = Vec::with_capacity(districts_per_side * districts_per_side);
    for dy in 0..districts_per_side {
        for dx in 0..districts_per_side {
            let origin = Point::new(dx as f64 * pitch_m, dy as f64 * pitch_m);
            origins.push(origin);
            for j in 0..k {
                for i in 0..k {
                    aps.push(Point::new(
                        origin.x + i as f64 * CITY_AP_SPACING_M,
                        origin.y + j as f64 * CITY_AP_SPACING_M,
                    ));
                }
            }
        }
    }
    let clients: Vec<Point> = (0..n_clients)
        .map(|c| {
            let o = origins[c % origins.len()];
            Point::new(
                o.x + rng.gen_range(-CITY_CLIENT_MARGIN_M..=extent + CITY_CLIENT_MARGIN_M),
                o.y + rng.gen_range(-CITY_CLIENT_MARGIN_M..=extent + CITY_CLIENT_MARGIN_M),
            )
        })
        .collect();
    Wlan::new(aps, clients, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorn_topology::{ApId, ClientId};

    #[test]
    fn distance_solver_roundtrips() {
        let radio = RadioParams::default();
        let pl = LogDistance::indoor_5ghz(0);
        for snr in [0.0, 10.0, 20.0, 30.0] {
            let d = distance_for_snr20(&radio, &pl, snr);
            let achieved = radio.tx_power_dbm + radio.antenna_gains_dbi
                - pl.median_db(d)
                - channel_noise_floor_dbm(ChannelWidth::Ht20, radio.noise_figure_db);
            assert!((achieved - snr).abs() < 0.01, "snr {snr}: got {achieved}");
        }
    }

    #[test]
    fn topology1_has_the_intended_link_classes() {
        let w = topology1();
        // Poor clients at AP 0.
        for c in 0..2 {
            let snr = w.snr_db(ApId(0), ClientId(c), ChannelWidth::Ht20);
            assert!((snr - POOR_SNR_DB).abs() < 1.0, "client {c}: {snr}");
        }
        // Good clients at AP 1.
        for c in 2..4 {
            let snr = w.snr_db(ApId(1), ClientId(c), ChannelWidth::Ht20);
            assert!((snr - GOOD_SNR_DB).abs() < 1.0, "client {c}: {snr}");
        }
        // Interference-free.
        let g = w.ap_only_interference_graph();
        assert!(!g.interferes(ApId(0), ApId(1)));
    }

    #[test]
    fn topology2_shape() {
        let w = topology2();
        assert_eq!(w.aps.len(), 5);
        assert_eq!(w.clients.len(), 10);
        let g = w.ap_only_interference_graph();
        // APs 0 and 2 contend; the islands don't.
        assert!(g.interferes(ApId(0), ApId(2)));
        assert!(!g.interferes(ApId(0), ApId(1)));
        assert!(!g.interferes(ApId(3), ApId(4)));
        // The poor clients really are poor at their home APs.
        let poor3 = w.snr_db(ApId(3), ClientId(7), ChannelWidth::Ht20);
        let poor4 = w.snr_db(ApId(4), ClientId(9), ChannelWidth::Ht20);
        assert!(poor3 < 2.0 && poor4 < 2.0, "{poor3} {poor4}");
    }

    #[test]
    fn fig11_is_fully_contending() {
        let w = fig11();
        let g = w.ap_only_interference_graph();
        for i in 0..3 {
            for j in i + 1..3 {
                assert!(g.interferes(ApId(i), ApId(j)), "{i} vs {j}");
            }
        }
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn city_grid_is_district_isolated() {
        let w = city_grid(3, 2, 90, 5);
        assert_eq!(w.aps.len(), 9 * 4);
        assert_eq!(w.clients.len(), 90);
        // No association: AP-only graph already shows the components.
        let g = w.ap_only_interference_graph();
        assert_eq!(g.connected_components().len(), 9);
        // Even with every client associated to its nearest AP, clients
        // never bridge districts.
        let assoc: Vec<Option<ApId>> = w
            .clients
            .iter()
            .map(|c| {
                (0..w.aps.len())
                    .min_by(|&a, &b| {
                        w.aps[a]
                            .pos
                            .distance(&c.pos)
                            .total_cmp(&w.aps[b].pos.distance(&c.pos))
                    })
                    .map(ApId)
            })
            .collect();
        let full = w.interference_graph(&assoc);
        assert_eq!(full.connected_components().len(), 9);
    }

    #[test]
    fn zoned_city_is_isolated_yet_border_reachable() {
        let w = zoned_city(2, 2, 250.0, 24, 5);
        assert_eq!(w.aps.len(), 16);
        // Districts still decompose into exactly 4 components…
        let g = w.ap_only_interference_graph();
        assert_eq!(g.connected_components().len(), 4);
        // …but each district has at least one AP within 250 m of a
        // foreign AP, so a 250 m border margin yields non-empty border
        // sets (unlike the 400 m-pitch city_grid).
        for z in 0..4 {
            let mine = (z * 4)..(z * 4 + 4);
            let has_border = mine.clone().any(|a| {
                (0..w.aps.len())
                    .filter(|b| !mine.contains(b))
                    .any(|b| w.aps[a].pos.distance(&w.aps[b].pos) <= 250.0)
            });
            assert!(has_border, "zone {z} has no border AP");
        }
    }

    #[test]
    #[should_panic(expected = "zones would merge")]
    fn zoned_city_rejects_merging_pitch() {
        let _ = zoned_city(2, 2, 200.0, 8, 1);
    }

    #[test]
    fn zoned_city_at_the_city_pitch_is_the_city_grid_without_shadowing() {
        for (d, k, n, seed) in [(1, 1, 3, 0), (2, 2, 24, 5), (3, 4, 90, 42)] {
            let mut grid = city_grid(d, k, n, seed);
            let zoned = zoned_city(d, k, CITY_DISTRICT_PITCH_M, n, seed);
            assert_ne!(grid.pathloss.shadowing_sigma_db, 0.0);
            grid.pathloss.shadowing_sigma_db = 0.0;
            assert_eq!(
                format!("{grid:?}"),
                format!("{zoned:?}"),
                "{d} {k} {n} {seed}"
            );
        }
    }

    #[test]
    fn city_grid_is_deterministic() {
        let a = city_grid(2, 3, 40, 9);
        let b = city_grid(2, 3, 40, 9);
        assert_eq!(a.clients[17].pos.x, b.clients[17].pos.x);
        assert_eq!(a.aps.len(), 4 * 9);
    }

    #[test]
    fn enterprise_grid_shape_and_determinism() {
        let a = enterprise_grid(3, 2, 50.0, 20, 7);
        assert_eq!(a.aps.len(), 6);
        assert_eq!(a.clients.len(), 20);
        let b = enterprise_grid(3, 2, 50.0, 20, 7);
        assert_eq!(a.clients[5].pos.x, b.clients[5].pos.x);
        let c = enterprise_grid(3, 2, 50.0, 20, 8);
        assert_ne!(a.clients[5].pos.x, c.clients[5].pos.x);
    }
}
