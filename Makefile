# Convenience targets for the SMB reproduction.

.PHONY: install test coverage bench bench-timing experiments examples calibrate clean

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

bench:               ## shape assertions + timing benchmarks
	pytest benchmarks/

bench-timing:        ## timing benchmarks only
	pytest benchmarks/ --benchmark-only

coverage:            ## tests with the CI coverage floor (needs pytest-cov)
	pytest tests/ --cov=repro --cov-report=term-missing --cov-fail-under=80

experiments:         ## regenerate every table/figure (text + JSON)
	python -m repro all --json results/all_experiments.json | tee results/all_experiments_default_scale.txt

examples:
	for ex in examples/*.py; do echo "== $$ex =="; python $$ex; done

calibrate:           ## regenerate shipped Monte-Carlo constants
	python tools/calibrate_constants.py --trials 500

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
