# Convenience targets for the psync workspace.

.PHONY: all test lint doc examples experiments bench loc

all: test lint

test:
	cargo test --workspace

lint:
	cargo clippy --workspace --all-targets -- -D warnings
	cargo fmt --all --check

doc:
	cargo doc --workspace --no-deps

examples:
	for ex in quickstart register_demo clock_skew_stress mmt_pipeline \
	          event_ordering failure_detector replicated_counter; do \
	    cargo run -q --release --example $$ex || exit 1; \
	done

# Regenerate the EXPERIMENTS.md tables (stdout).
experiments:
	cargo run --release -p psync-bench --bin experiments

bench:
	cargo bench -p psync-bench

loc:
	find . -name "*.rs" -not -path "./target/*" | xargs wc -l | tail -1
