CREATE INDEX ON readings (rid);
CREATE PROB INDEX ON readings (value);
