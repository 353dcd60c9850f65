//! The options table (`fleet::options`), checked row by row through what
//! it generates: the flag parser, the scenario decoder, the usage text and
//! the one resolve step.

use fleet::options::usage_lines;
use fleet::{run_fleet, ChaosProfile, FleetCli, FleetConfig, FleetPolicy, ScenarioSpec};

fn parse(args: &[&str]) -> Result<FleetCli, String> {
    FleetCli::parse(args.iter().map(|a| a.to_string())).map(|(cli, _)| cli)
}

fn resolved(args: &[&str]) -> FleetConfig {
    parse(args)
        .expect("flags parse")
        .resolve()
        .expect("resolves")
}

/// A non-default text the row accepts, read off its usage argument: the
/// last of an enum's names, or a number inside every numeric row's range.
fn sample(arg: &str) -> &str {
    match arg {
        "N" => "3",
        "F" => "0.5",
        names => names.rsplit('|').next().expect("rsplit yields one item"),
    }
}

#[test]
fn a_flag_and_its_scenario_key_resolve_to_the_same_config() {
    let stock = format!("{:?}", resolved(&[]));
    let mut keyed = 0;
    for flag in FleetCli::FLAGS {
        let Some(key) = flag.key else { continue };
        keyed += 1;
        let (typed, json) = match flag.switch {
            Some(text) => (vec![flag.name], (text == "on").to_string()),
            None => {
                let text = sample(flag.arg);
                let quoted = format!("\"{text}\"");
                let json = if text.parse::<f64>().is_ok() {
                    text.to_string()
                } else {
                    quoted
                };
                (vec![flag.name, text], json)
            }
        };
        let from_flag = resolved(&typed);
        let mut from_key = resolved(&[]);
        ScenarioSpec::from_json(&format!("{{\"{key}\": {json}}}"))
            .unwrap_or_else(|e| panic!("{key}: {e}"))
            .apply_to(&mut from_key);
        assert_eq!(format!("{from_flag:?}"), format!("{from_key:?}"), "{key}");
        assert_ne!(
            format!("{from_flag:?}"),
            stock,
            "{key}: the sample must move the config"
        );
    }
    assert_eq!(keyed, 6, "scenario keys");
}

#[test]
fn every_row_is_listed_and_nothing_else_parses() {
    let usage = usage_lines(FleetCli::FLAGS);
    assert_eq!(FleetCli::FLAGS.len(), 13);
    for flag in FleetCli::FLAGS {
        assert!(
            usage.contains(flag.name) && usage.contains(flag.help),
            "{}",
            flag.name
        );
    }
    // A flag no row owns must not fall through to the positional list and
    // run the stock configuration.
    let err = parse(&["fleet", "--polcy", "fast"]).unwrap_err();
    assert!(err.contains("--polcy"), "{err}");
    // Text a row rejects names the row; file and flag agree on ranges.
    for bad in [
        vec!["--realtime-share", "1.5"],
        vec!["--shards", "0"],
        vec!["--policy", "bogus"],
        vec!["--users"],
    ] {
        let err = parse(&bad).unwrap_err();
        assert!(err.starts_with(bad[0]), "{err}");
    }
    assert_eq!(resolved(&["--users", "1_000_000"]).users, 1_000_000);
}

#[test]
fn the_drain_is_settled_once_after_file_and_flags_are_merged() {
    let path = std::env::temp_dir().join(format!("options_table_{}.json", std::process::id()));
    let path_text = path.to_str().expect("temp path is utf-8");
    std::fs::write(&path, r#"{"policy": "ifttt", "chaos": "harsh"}"#).unwrap();
    // The file alone: ifttt's 1000 s already clears the chaos floor.
    let file_only = resolved(&["--scenario", path_text]);
    assert_eq!(
        (file_only.chaos, file_only.drain_secs),
        (ChaosProfile::Harsh, 1000.0)
    );
    // Typed flags win field by field, and the floor is judged against the
    // final pair: chaos is off, so fast keeps its own 30 s.
    let both = resolved(&[
        "--scenario",
        path_text,
        "--chaos",
        "off",
        "--policy",
        "fast",
    ]);
    assert_eq!((both.chaos, both.drain_secs), (ChaosProfile::Off, 30.0));
    // Policy from a flag, live chaos from the file: fast's 30 s is raised.
    let mixed = resolved(&["--policy", "fast", "--scenario", path_text]);
    assert_eq!(
        (mixed.chaos, mixed.drain_secs),
        (ChaosProfile::Harsh, 120.0)
    );
    std::fs::write(&path, r#"{"realtime_share": 1.5}"#).unwrap();
    let err = parse(&["--scenario", path_text])
        .unwrap()
        .resolve()
        .unwrap_err();
    assert!(err.contains("`realtime_share`"), "{err}");
    std::fs::remove_file(&path).unwrap();
}

/// `with_cell_users(0)` used to trip the cell plan's assert and
/// `with_phases(_, 0, _)` an empty `gen_range`: both builders now pull
/// their value into the row's range, and a field written past them is
/// caught by `in_range`, which names it.
#[test]
fn degenerate_cell_size_and_window_are_clamped_not_panics() {
    let cfg = FleetConfig::new(100, 1, FleetPolicy::Fast)
        .with_cell_users(0)
        .with_phases(2.0, 0.0, 5.0);
    assert_eq!(cfg.cell_users, 1);
    assert!(cfg.window_secs > 0.0 && cfg.window_secs < 1e-300);
    assert_eq!((cfg.settle_secs, cfg.drain_secs), (2.0, 5.0));
    let report = run_fleet(&cfg.clone().in_range().expect("builders stay in range"));
    let cells: usize = report.per_shard.iter().map(|s| s.cells).sum();
    assert_eq!((report.users, cells), (100, 100));
    let mut zero_window = cfg.clone();
    zero_window.window_secs = -1.0;
    assert_eq!(zero_window.in_range().unwrap_err(), "window_secs");
    let mut no_cells = cfg;
    no_cells.cell_users = 0;
    assert_eq!(no_cells.in_range().unwrap_err(), "cell_users");
}
