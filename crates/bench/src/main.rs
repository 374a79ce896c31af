//! `tables` — print one of the reproduction's tables by name:
//!
//! ```text
//! cargo run -p semcc-bench --release -- <name> [--quick] [--jobs N]
//! ```
//!
//! The seed-pure head is printed first, then the timed tail as it is
//! measured. Exit code 2 on a usage error.

use semcc_bench::{Opts, REGISTRY};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, names) = Opts::parse(&args).unwrap_or_else(|e| usage(&e));
    let [name] = names.as_slice() else { usage("name exactly one table") };
    let Some(table) = REGISTRY.iter().find(|t| t.name == *name) else {
        usage(&format!("no table called `{name}`"))
    };
    let mut head = String::new();
    (table.seed_pure)(&opts, &mut head);
    print!("{head}");
    if let Some(timed) = table.timed {
        timed(&opts);
    }
}

fn usage(error: &str) -> ! {
    let names: Vec<&str> = REGISTRY.iter().map(|t| t.name).collect();
    eprintln!("error: {error}");
    eprintln!("usage: tables <name> [--quick] [--jobs N]");
    eprintln!("tables: {}", names.join(" "));
    std::process::exit(2)
}
